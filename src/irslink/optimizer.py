"""Discrete IRS phase optimization.

Center piece is a successive-refinement search: cyclic coordinate ascent
over the element phases where each element n is moved to the member of
the discrete phase set closest to the angle of its cross-term

    kappa_n = sum_{j != n} A[n, j] v_j + b[n].

That choice maximizes the element's contribution 2 Re{conj(v_n) kappa_n}
exactly, so the array gain never decreases. The sweep repeats until the
rate improves by at most epsilon between consecutive passes.

Implementation notes that matter for reproducibility:

* A coordinate only moves on a strict improvement of its local term;
  ties (including kappa_n == 0) keep the current phase. This makes
  traces non-decreasing by construction and runs deterministic.
* w = A v is refreshed at the start of every sweep and updated in O(N)
  after each accepted move, so a full sweep costs O(N^2) like a single
  matrix-vector product.
* The reported trace accumulates the exact per-move improvements on top
  of the initial gain; agreement with a from-scratch evaluation is a
  tested invariant of the link module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, Scenario, los_channel_matrix
from .link import (PhaseConfig, QuadraticForm, build_quadratic_form,
                   _quadratic_form_from_phi, quadratic_gain, rate, rate_from_gain)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_OUTER_ITERS = 100


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
    sweep changed the rate by at most epsilon. For the position-based
    scheme the trace is re-evaluated on the true channels, so it need
    not be monotone there.
    """

    final_phases: PhaseConfig
    rate_trace: tuple[float, ...]
    iterations: int
    converged: bool


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
    x = math.fmod(target_angle * levels / (2.0 * math.pi), levels)
    if x < 0.0:
        x += levels
    d = np.abs(x - np.arange(levels))
    d = np.minimum(d, levels - d)
    return int(np.argmin(d))


def _refine(form: QuadraticForm, levels: int, tx_power: float, noise_power: float,
            init_indices: np.ndarray, epsilon: float, max_outer_iters: int,
            record_configs: bool = False):
    """Coordinate-ascent core shared by all refinement entry points.

    Returns (indices, trace, iterations, converged, configs) where
    configs lists the index vector after init and after each sweep when
    record_configs is set (otherwise None).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if max_outer_iters < 1:
        raise ValueError(f"max_outer_iters must be >= 1, got {max_outer_iters!r}")

    size = form.b.shape[0]
    table = np.exp(1j * np.arange(levels) * (2.0 * np.pi / levels))
    idx = np.asarray(init_indices, dtype=np.int64).copy()
    v = table[idx]

    gain = quadratic_gain(form, v)
    trace = [rate_from_gain(gain, tx_power, noise_power)]
    configs = [idx.copy()] if record_configs else None
    diag = np.real(np.diag(form.a))

    iterations = 0
    converged = False
    for _ in range(max_outer_iters):
        w = form.a @ v
        for n in range(size):
            kappa = w[n] - diag[n] * v[n] + form.b[n]
            if kappa == 0.0:
                continue
            best = quantize_phase(math.atan2(kappa.imag, kappa.real), levels)
            if best == idx[n]:
                continue
            gain_step = 2.0 * ((table[best] - v[n]).conjugate() * kappa).real
            if gain_step > 0.0:
                w += form.a[:, n] * (table[best] - v[n])
                v[n] = table[best]
                idx[n] = best
                gain += gain_step
        iterations += 1
        trace.append(rate_from_gain(gain, tx_power, noise_power))
        if record_configs:
            configs.append(idx.copy())
        if abs(trace[-1] - trace[-2]) <= epsilon:
            converged = True
            break
    return idx, trace, iterations, converged, configs


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
    form = build_quadratic_form(channels)
    idx, trace, iterations, converged, _ = _refine(
        form, levels, tx_power, noise_power, init, epsilon, max_outer_iters)
    return RefinementReport(final_phases=PhaseConfig(indices=idx, levels=levels),
                            rate_trace=tuple(trace), iterations=iterations,
                            converged=converged)


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

    phi = channels.h_r * channels.h_v[np.newaxis, :]
    phi_red = np.empty((phi.shape[0], num_groups), dtype=np.complex128)
    for g in range(num_groups):
        phi_red[:, g] = phi[:, group_of == g].sum(axis=1)
    form = _quadratic_form_from_phi(phi_red, channels.h_d)

    init = np.zeros(num_groups, dtype=np.int64)
    red_idx, trace, iterations, converged, _ = _refine(
        form, levels, tx_power, noise_power, init, epsilon, max_outer_iters)
    full = PhaseConfig(indices=red_idx[group_of], levels=levels)
    return RefinementReport(final_phases=full, rate_trace=tuple(trace),
                            iterations=iterations, converged=converged)


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
    form = build_quadratic_form(estimate)
    init = np.zeros(scenario.irs_elements, dtype=np.int64)
    idx, _, iterations, converged, configs = _refine(
        form, levels, tx_power, noise_power, init, epsilon, max_outer_iters,
        record_configs=True)
    achieved = tuple(
        rate(true_channels, PhaseConfig(indices=cfg, levels=levels),
             tx_power, noise_power)
        for cfg in configs)
    return RefinementReport(final_phases=PhaseConfig(indices=idx, levels=levels),
                            rate_trace=achieved, iterations=iterations,
                            converged=converged)
