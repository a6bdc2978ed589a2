"""Discrete IRS phase optimization.

Center piece is a successive-refinement search (Wu & Zhang, "Beamforming
Optimization for Wireless Network Aided by IRS with Discrete Phase
Shifts", IEEE TCOM 2020): cyclic coordinate ascent over the element
phases where each element n is moved to the member of the discrete phase
set closest to the angle of its cross-term

    kappa_n = phi_n^H y - ||phi_n||^2 v_n,    y = Phi v + h_d,

with phi_n the n-th column of Phi = H_r diag(h_v). That choice maximizes
the element's contribution 2 Re{conj(v_n) kappa_n} exactly, so the array
gain ||y||^2 never decreases. The sweep repeats until the rate improves
by at most epsilon between consecutive passes.

Implementation notes that matter for reproducibility and cost:

* A coordinate only moves on a strict improvement of its local term;
  ties (including kappa_n == 0) keep the current phase. This makes
  traces non-decreasing by construction and runs deterministic.
* The search tracks the M-vector y, never the N x N matrix
  A = Phi^H Phi (rank <= M): setup costs O(M N), each visit O(M) for
  kappa_n and each accepted move O(M) for y += phi_n (v_n' - v_n), so a
  sweep costs O(M N) time and the search O(M N) memory.
* Rounding to the phase grid compares only the two grid points around
  the target, with the distance expression and tie rule of
  ``quantize_phase``, so both give the same index.
* The reported trace accumulates the exact per-move improvements on top
  of the initial gain; agreement with a from-scratch evaluation is a
  tested invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, Scenario, los_channel_matrix
from .link import (PhaseConfig, build_quadratic_form, quadratic_gain, rate,
                   rate_from_gain)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_OUTER_ITERS = 100
# Largest phase set a configuration may ask for (16 quantization bits).
# The search builds a table with one entry per level, so an unbounded
# value could ask for more memory than any host has.
MAX_LEVELS = 2 ** 16


@dataclass(frozen=True)
class GroupingSpec:
    """Tie adjacent elements into group_rows x group_cols blocks."""

    group_rows: int
    group_cols: int

    def __post_init__(self) -> None:
        if not (isinstance(self.group_rows, int) and self.group_rows >= 1
                and isinstance(self.group_cols, int) and self.group_cols >= 1):
            raise ValueError("group dimensions must be positive integers")


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of a phase search.

    ``rate_trace`` holds the rate after initialization and after each
    sweep (len = iterations + 1). ``converged`` is True when the last
    sweep changed the rate by at most epsilon. ``accepted_moves`` counts
    the phase changes the search made over all sweeps. For the
    position-based scheme the trace is re-evaluated on the true
    channels, so it need not be monotone there, while ``iterations``,
    ``converged`` and ``accepted_moves`` describe the LOS-side search.
    """

    final_phases: PhaseConfig
    rate_trace: tuple[float, ...]
    iterations: int
    converged: bool
    accepted_moves: int


def phase_set(levels: int) -> np.ndarray:
    """The L equispaced phases {k * 2*pi/L : k = 0..L-1}."""
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    return np.arange(levels) * (2.0 * np.pi / levels)


def quantize_phase(target_angle: float, levels: int) -> int:
    """Index of the phase-set member nearest to target_angle.

    Distance is circular (mod 2*pi); exact ties go to the smaller index.
    Works in units of the grid step so representable ties stay exact.
    """
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    if not math.isfinite(target_angle):
        raise ValueError(f"target angle must be finite, got {target_angle!r}")
    return _nearest_level(target_angle, levels)


def _nearest_level(target_angle: float, levels: int) -> int:
    """quantize_phase without argument checks.

    With x the angle in grid steps, reduced to [0, L], only floor(x) and
    floor(x) + 1 (mod L) can be nearest: every other grid point is at
    least one step away, and rounding cannot bring it below the half
    step the nearer of the two is within. The distance is computed as
    min(|x - k|, L - |x - k|) for k in [0, L), and a tie goes to the
    smaller index, as an argmin over the whole grid would.
    """
    x = math.fmod(target_angle * levels / (2.0 * math.pi), levels)
    if x < 0.0:
        x += levels
    lo = int(x) % levels
    hi = (lo + 1) % levels
    d_lo = abs(x - lo)
    if levels - d_lo < d_lo:
        d_lo = levels - d_lo
    d_hi = abs(x - hi)
    if levels - d_hi < d_hi:
        d_hi = levels - d_hi
    if d_hi < d_lo or (d_hi == d_lo and hi < lo):
        return hi
    return lo


def _refine(phi: np.ndarray, h_d: np.ndarray, levels: int, tx_power: float,
            noise_power: float, init_indices: np.ndarray, epsilon: float,
            max_outer_iters: int, record_configs: bool = False):
    """Coordinate-ascent core shared by all refinement entry points.

    Maximizes ||phi v + h_d||^2 over the discrete phases of v. Returns
    (indices, trace, iterations, converged, accepted_moves, configs)
    where configs lists the index vector after init and after each sweep
    when record_configs is set (otherwise None).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if max_outer_iters < 1:
        raise ValueError(f"max_outer_iters must be >= 1, got {max_outer_iters!r}")

    # Per-element state lives in Python lists: with O(M) work per visit
    # the interpreter, not numpy, sets the cost, and list indexing and
    # Python complex arithmetic beat numpy scalar access there.
    table = np.exp(1j * np.arange(levels) * (2.0 * np.pi / levels)).tolist()
    rows = np.ascontiguousarray(phi.T)
    cols = list(rows)
    conj_dots = [col.dot for col in rows.conj()]
    norms = (phi.real ** 2 + phi.imag ** 2).sum(axis=0).tolist()
    idx = [int(k) for k in init_indices]
    v = [table[k] for k in idx]
    y = phi @ np.array(v, dtype=np.complex128) + h_d

    gain = float(np.vdot(y, y).real)
    trace = [rate_from_gain(gain, tx_power, noise_power)]
    configs = [list(idx)] if record_configs else None

    iterations = 0
    accepted = 0
    converged = False
    for _ in range(max_outer_iters):
        for n in range(len(idx)):
            kappa = complex(conj_dots[n](y)) - norms[n] * v[n]
            if kappa == 0.0:
                continue
            best = _nearest_level(math.atan2(kappa.imag, kappa.real), levels)
            if best == idx[n]:
                continue
            delta = table[best] - v[n]
            gain_step = 2.0 * (delta.conjugate() * kappa).real
            if gain_step > 0.0:
                y += cols[n] * delta
                v[n] = table[best]
                idx[n] = best
                gain += gain_step
                accepted += 1
        iterations += 1
        trace.append(rate_from_gain(gain, tx_power, noise_power))
        if record_configs:
            configs.append(list(idx))
        if abs(trace[-1] - trace[-2]) <= epsilon:
            converged = True
            break
    return (np.array(idx, dtype=np.int64), trace, iterations, converged,
            accepted, configs)


def successive_refinement(channels: ChannelSet, levels: int, tx_power: float,
                          noise_power: float, *, epsilon: float = DEFAULT_EPSILON,
                          init_phases: PhaseConfig | None = None,
                          max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                          ) -> RefinementReport:
    """Cyclic coordinate ascent over all element phases until the rate
    settles to within epsilon between sweeps."""
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    n = channels.num_irs_elements
    if init_phases is None:
        init = np.zeros(n, dtype=np.int64)
    else:
        if init_phases.levels != levels:
            raise ValueError("init_phases quantization does not match levels")
        if init_phases.indices.shape[0] != n:
            raise ValueError("init_phases length does not match element count")
        init = init_phases.indices
    idx, trace, iterations, converged, accepted, _ = _refine(
        channels.cascade, channels.h_d, levels, tx_power, noise_power, init,
        epsilon, max_outer_iters)
    return RefinementReport(final_phases=PhaseConfig(indices=idx, levels=levels),
                            rate_trace=tuple(trace), iterations=iterations,
                            converged=converged, accepted_moves=accepted)


def brute_force(channels: ChannelSet, levels: int, tx_power: float,
                noise_power: float, *, budget: int = 10 ** 6,
                ) -> tuple[PhaseConfig, float]:
    """Exhaustive search over all levels**N configurations.

    Guards against combinatorial blowup with an enumeration budget; ties
    resolve to the lexicographically first index vector.
    """
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    n = channels.num_irs_elements
    count = levels ** n
    if count > budget:
        raise ValueError(
            f"L^N = {levels}^{n} = {count} configurations exceeds the "
            f"enumeration budget {budget}")
    form = build_quadratic_form(channels)
    table = np.exp(1j * np.arange(levels) * (2.0 * np.pi / levels))
    best_gain = -math.inf
    best = None
    for combo in itertools.product(range(levels), repeat=n):
        idx = np.array(combo, dtype=np.int64)
        gain = quadratic_gain(form, table[idx])
        if gain > best_gain:
            best_gain = gain
            best = idx
    config = PhaseConfig(indices=best, levels=levels)
    return config, rate_from_gain(best_gain, tx_power, noise_power)


def grouping_layout(irs_shape: tuple[int, int], grouping: GroupingSpec) -> np.ndarray:
    """Group index of every element (row-major), groups tiled row-major.

    Raises if the block size does not divide the panel.
    """
    irs_rows, irs_cols = irs_shape
    if irs_rows % grouping.group_rows != 0 or irs_cols % grouping.group_cols != 0:
        raise ValueError(
            f"grouping {grouping.group_rows}x{grouping.group_cols} does not "
            f"divide the {irs_rows}x{irs_cols} panel")
    groups_per_row = irs_cols // grouping.group_cols
    idx = np.arange(irs_rows * irs_cols)
    r = idx // irs_cols
    c = idx % irs_cols
    return (r // grouping.group_rows) * groups_per_row + (c // grouping.group_cols)


def optimize_grouped(channels: ChannelSet, irs_shape: tuple[int, int],
                     grouping: GroupingSpec, levels: int, tx_power: float,
                     noise_power: float, *, epsilon: float = DEFAULT_EPSILON,
                     max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                     ) -> RefinementReport:
    """Successive refinement with one shared phase per element group.

    The reduced problem sums the columns of Phi = H_r diag(h_v) within
    each group; the solution expands back group-wise. A 1x1 grouping
    reproduces the ungrouped search exactly.
    """
    irs_rows, irs_cols = irs_shape
    if irs_rows * irs_cols != channels.num_irs_elements:
        raise ValueError(
            f"irs_shape {irs_rows}x{irs_cols} does not match "
            f"{channels.num_irs_elements} channel columns")
    group_of = grouping_layout(irs_shape, grouping)
    num_groups = int(group_of.max()) + 1

    phi = channels.cascade
    phi_red = np.empty((phi.shape[0], num_groups), dtype=np.complex128)
    for g in range(num_groups):
        phi_red[:, g] = phi[:, group_of == g].sum(axis=1)

    init = np.zeros(num_groups, dtype=np.int64)
    red_idx, trace, iterations, converged, accepted, _ = _refine(
        phi_red, channels.h_d, levels, tx_power, noise_power, init, epsilon,
        max_outer_iters)
    full = PhaseConfig(indices=red_idx[group_of], levels=levels)
    return RefinementReport(final_phases=full, rate_trace=tuple(trace),
                            iterations=iterations, converged=converged,
                            accepted_moves=accepted)


def optimize_position_based(scenario: Scenario, true_channels: ChannelSet,
                            levels: int, tx_power: float, noise_power: float, *,
                            epsilon: float = DEFAULT_EPSILON,
                            max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                            ) -> RefinementReport:
    """Optimize on geometry-derived LOS channels, score on the truth.

    The search never sees the fading realization: phases come from the
    pure-LOS estimate of the scenario, and the reported trace and final
    rate re-evaluate each swept configuration on ``true_channels``.
    ``converged``/``iterations`` describe the LOS-side search.
    """
    if (true_channels.num_irs_elements != scenario.irs_elements
            or true_channels.num_bs_antennas != scenario.bs_antennas):
        raise ValueError("true_channels dimensions do not match the scenario")
    estimate = los_channel_matrix(scenario)
    init = np.zeros(scenario.irs_elements, dtype=np.int64)
    idx, _, iterations, converged, accepted, configs = _refine(
        estimate.cascade, estimate.h_d, levels, tx_power, noise_power, init,
        epsilon, max_outer_iters, record_configs=True)
    achieved = tuple(
        rate(true_channels, PhaseConfig(indices=cfg, levels=levels),
             tx_power, noise_power)
        for cfg in configs)
    return RefinementReport(final_phases=PhaseConfig(indices=idx, levels=levels),
                            rate_trace=achieved, iterations=iterations,
                            converged=converged, accepted_moves=accepted)
