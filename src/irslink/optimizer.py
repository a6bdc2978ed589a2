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
* Rounding to the phase grid is one closed form, the same operations
  in Python (``_nearest_level``) and numpy (``_nearest_levels``). With x
  the angle in grid steps reduced to [0, L], only floor(x) and
  floor(x) + 1 (mod L) can be nearest, at exact distances; exact ties go
  to the smaller index, as an argmin over the grid would. That is
  ceil(x - 1/2), plus one where x - 1/2 == L - 1, mod L.
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
# Fewest searches for which refine_batch's numpy pass beats one Python
# sweep per search (16x16 surface, 8 antennas, L = 4, on a 2-core x86-64
# box).
BATCH_MIN_SEARCHES = 8


def check_search_settings(levels: int, epsilon: float = DEFAULT_EPSILON,
                          max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS) -> None:
    """Raise ValueError, naming the setting first, unless ``levels`` is an
    integer in [1, MAX_LEVELS], ``epsilon`` > 0 and ``max_outer_iters`` >= 1."""
    if not isinstance(levels, int):
        raise ValueError(f"levels must be an integer, got {levels!r}")
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in [1, {MAX_LEVELS}], got {levels!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (isinstance(max_outer_iters, int) and max_outer_iters >= 1):
        raise ValueError(f"max_outer_iters must be >= 1, got {max_outer_iters!r}")


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
    check_search_settings(levels)
    return np.arange(levels) * (2.0 * np.pi / levels)


def quantize_phase(target_angle: float, levels: int) -> int:
    """Index of the phase-set member nearest to target_angle.

    Distance is circular (mod 2*pi); exact ties go to the smaller index.
    Works in units of the grid step so representable ties stay exact.
    """
    check_search_settings(levels)
    if not math.isfinite(target_angle):
        raise ValueError(f"target angle must be finite, got {target_angle!r}")
    return _nearest_level(target_angle, levels)


def _nearest_level(target_angle: float, levels: int) -> int:
    """quantize_phase without argument checks (module docstring)."""
    x = target_angle * levels / (2.0 * math.pi) % levels - 0.5
    return (math.ceil(x) + (x == levels - 1)) % levels


def _nearest_levels(x: np.ndarray, levels: int, best: np.ndarray,
                    tie: np.ndarray) -> None:
    """_nearest_level of every angle in x, written to ``best`` as float
    indices in [0, L], where L stands for index 0; x and ``tie`` are
    overwritten as work space."""
    np.multiply(x, levels, x)
    np.divide(x, 2.0 * math.pi, x)
    np.remainder(x, levels, x)
    np.subtract(x, 0.5, x)
    np.ceil(x, best)
    np.equal(x, levels - 1, tie)
    np.add(best, tie, best)


def _scalar_sweep(dots, cols, norms, idx, v, y, gain: float, table,
                  levels: int) -> tuple[float, int]:
    """One Python sweep of one search; returns its gain and moves. ``dots``
    are the dot methods of the conjugated columns ``cols``; ``idx``, ``v``
    and ``y`` are updated in place. At O(M) work per visit the interpreter
    sets the cost, and Python lists and complex numbers beat numpy there.
    """
    moves = 0
    for n in range(len(idx)):
        kappa = complex(dots[n](y)) - norms[n] * v[n]
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
            moves += 1
    return gain, moves


def refine_batch(phis, h_ds, levels: int, tx_powers, noise_powers, epsilon: float,
                 max_outer_iters: int, *, record_configs: bool = False) -> list:
    """T independent searches from all-zero phases, each maximizing
    ||phi v + h_d||^2 over the discrete phases of v.

    ``phis`` yields T problems of one shape (M, N) and ``h_ds`` holds their
    T direct channels; search t runs on ``phis[t]`` and ``h_ds[t]`` with
    rate parameters ``tx_powers[t]`` and ``noise_powers[t]``, and stops at
    its own epsilon stop. Returns per search, in order, (indices, trace,
    iterations, converged, accepted_moves, configs), configs listing the
    indices after init and after each sweep if record_configs is set.

    Below BATCH_MIN_SEARCHES searches, each search sweeps in Python
    (``_scalar_sweep``). From there on one numpy pass per element visit,
    about twenty numpy calls whatever T is, serves every search still
    running. It computes each quantity with the Python sweep's operations
    in its order: kappa's dot product through the same BLAS kernel (a
    stacked matmul of 1 x M by M x 1 products), the same complex product
    to update ``y``, gains and traces accumulated and rated per search in
    Python, the same rounding. So both give the same bits, unless numpy's
    vectorized arctan2, which can differ from ``math.atan2`` by one ulp,
    moves an angle across a rounding boundary it lies within an ulp of.
    """
    check_search_settings(levels, epsilon, max_outer_iters)
    num = len(h_ds)
    if num == 0:
        return []
    # the phase set, with entry L repeating entry 0
    table = np.exp(1j * (np.arange(levels + 1) % levels) * (2.0 * np.pi / levels))

    # Per search: conjugated columns, (N, T, 1, M), so that visit n reads
    # one (T, 1, M) block, y as (T, M, 1) and the element state as (N, T)
    # arrays; idx_t holds indices as floats in [0, L].
    conj_t = norms = y = None
    for t, (phi, h_d) in enumerate(zip(phis, h_ds)):
        if conj_t is None:
            size_m, size_n = phi.shape
            conj_t = np.empty((size_n, num, 1, size_m), dtype=np.complex128)
            norms = np.empty((size_n, num))
            y = np.empty((num, size_m, 1), dtype=np.complex128)
        if phi.shape != (size_m, size_n):
            raise ValueError(f"problem {t} is {phi.shape[0]} x {phi.shape[1]}, "
                             f"not {size_m} x {size_n} like problem 0")
        np.conjugate(phi.T, out=conj_t[:, t, 0, :])
        norms[:, t] = (phi.real ** 2 + phi.imag ** 2).sum(axis=0)
        y[t, :, 0] = phi @ np.full(size_n, table[0]) + h_d
    idx_t = np.zeros((size_n, num))
    v_t = np.full((size_n, num), table[0])
    nv_t = norms * v_t
    gain = np.array([np.vdot(y[t, :, 0], y[t, :, 0]).real for t in range(num)])
    tx_powers = [float(p) for p in tx_powers]
    noise_powers = [float(p) for p in noise_powers]
    traces = [[rate_from_gain(g, p, n)]
              for g, p, n in zip(gain.tolist(), tx_powers, noise_powers)]
    configs = ([[np.zeros(size_n, dtype=np.int64)] for _ in range(num)]
               if record_configs else None)
    accepted = np.zeros(num, dtype=np.int64)
    active = np.arange(num)
    results = [None] * num
    scalar = num < BATCH_MIN_SEARCHES
    if scalar:
        # per search: its dot methods and columns, and its norms,
        # indices and phases, as _scalar_sweep takes them
        table_list = table.tolist()
        lists = []
        for t in range(num):
            conj_rows = conj_t[:, t, 0, :]
            lists.append(([row.dot for row in conj_rows], list(conj_rows.conj()),
                          norms[:, t].tolist(), [0] * size_n,
                          [table_list[0]] * size_n))

    matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add
    iterations = 0
    while True:
        size_t = active.shape[0]
        if scalar:
            for i, t in enumerate(active.tolist()):
                row_dots, rows, row_norms, idx, v = lists[t]
                gain[i], moves = _scalar_sweep(row_dots, rows, row_norms, idx, v,
                                               y[i, :, 0], float(gain[i]), table_list,
                                               levels)
                accepted[i] += moves
                idx_t[:, i] = idx
        else:
            y2 = y.reshape(size_t, -1)
            dots = np.empty((size_t, 1, 1), dtype=np.complex128)
            dot = dots.reshape(size_t)
            kappa = np.empty(size_t, dtype=np.complex128)
            delta = np.empty(size_t, dtype=np.complex128)
            step = np.empty_like(y2)
            move_nv = np.empty(size_t, dtype=np.complex128)
            x, best, gain_step, part = (np.empty(size_t) for _ in range(4))
            tie, acc = (np.empty(size_t, dtype=bool) for _ in range(2))
            acc_rows = acc[:, np.newaxis]
            k_re, k_im, d_re, d_im = kappa.real, kappa.imag, delta.real, delta.imag
            for n, cols in enumerate(conj_t):
                if size_t < num:
                    cols = cols[active]
                v, nv = v_t[n], nv_t[n]
                # kappa = phi_n^H y - ||phi_n||^2 v_n
                matmul(cols, y, dots)
                subtract(dot, nv, kappa)
                np.arctan2(k_im, k_re, x)
                _nearest_levels(x, levels, best, tie)
                target = table[best.astype(np.intp)]
                # the gain step 2 Re{conj(delta) kappa}, halved; a move needs > 0
                subtract(target, v, delta)
                multiply(d_re, k_re, gain_step)
                multiply(d_im, k_im, part)
                add(gain_step, part, gain_step)
                np.greater(gain_step, 0.0, acc)
                if not np.count_nonzero(acc):
                    continue
                np.conjugate(cols.reshape(size_t, -1), step)
                multiply(step, delta[:, np.newaxis], step)
                add(y2, step, y2, where=acc_rows)
                np.copyto(v, target, where=acc)
                multiply(norms[n], target, move_nv)
                np.copyto(nv, move_nv, where=acc)
                np.copyto(idx_t[n], best, where=acc)
                multiply(gain_step, 2.0, gain_step)
                add(gain, gain_step, gain, where=acc)
                accepted += acc
        iterations += 1

        keep = []
        for i, (t, g) in enumerate(zip(active.tolist(), gain.tolist())):
            trace = traces[t]
            trace.append(rate_from_gain(g, tx_powers[t], noise_powers[t]))
            if record_configs:
                configs[t].append((idx_t[:, i] % levels).astype(np.int64))
            converged = abs(trace[-1] - trace[-2]) <= epsilon
            if converged or iterations == max_outer_iters:
                results[t] = ((idx_t[:, i] % levels).astype(np.int64), trace,
                              iterations, converged, int(accepted[i]),
                              configs[t] if record_configs else None)
            else:
                keep.append(i)
        if not keep:
            return results
        if len(keep) < size_t:
            # C-ordered copies: the sweeps update y through views, and
            # matmul takes the BLAS path only for contiguous operands. The
            # columns stay where they are and are gathered from then on.
            active, y, gain, accepted = (np.ascontiguousarray(a[keep])
                                         for a in (active, y, gain, accepted))
            v_t, nv_t, idx_t, norms = (np.ascontiguousarray(a[:, keep])
                                       for a in (v_t, nv_t, idx_t, norms))


def search_report(found, levels: int, *, group_of: np.ndarray | None = None,
                  truth=None) -> RefinementReport:
    """The RefinementReport of one ``refine_batch`` result.

    ``group_of`` expands a grouped search's phases to the elements. With
    ``truth`` = (true channels, tx_power, noise_power), the trace holds
    each recorded config's rate on the true channels instead of the
    search's own rates (the position-based scheme).
    """
    idx, trace, iterations, converged, accepted, configs = found
    if group_of is not None:
        idx = idx[group_of]
    if truth is not None:
        channels, tx_power, noise_power = truth
        trace = [rate(channels, PhaseConfig(indices=cfg, levels=levels), tx_power,
                      noise_power) for cfg in configs]
    return RefinementReport(final_phases=PhaseConfig(indices=idx, levels=levels),
                            rate_trace=tuple(trace), iterations=iterations,
                            converged=converged, accepted_moves=accepted)


def successive_refinement(channels: ChannelSet, levels: int, tx_power: float,
                          noise_power: float, *, epsilon: float = DEFAULT_EPSILON,
                          max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                          ) -> RefinementReport:
    """Cyclic coordinate ascent over all element phases from zero phases
    until the rate settles to within epsilon between sweeps."""
    return search_report(refine_batch([channels.cascade], [channels.h_d], levels,
                                      [tx_power], [noise_power], epsilon,
                                      max_outer_iters)[0], levels)


def brute_force(channels: ChannelSet, levels: int, tx_power: float,
                noise_power: float, *, budget: int = 10 ** 6,
                ) -> tuple[PhaseConfig, float]:
    """Exhaustive search over all levels**N configurations.

    Guards against combinatorial blowup with an enumeration budget; ties
    resolve to the lexicographically first index vector.
    """
    check_search_settings(levels)
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


def grouped_cascade(phi: np.ndarray, group_of: np.ndarray) -> np.ndarray:
    """The reduced (M, G) problem: Phi's columns summed per group.

    Each group's columns in element order are summed as one contiguous
    run: the reduction a masked sum per group does. The sum comes out in
    Fortran order, and the search's products differ in the last bits by
    layout, so it is made C-ordered.
    """
    num_groups = int(group_of.max()) + 1
    members = np.argsort(group_of, kind="stable")
    return np.ascontiguousarray(
        phi[:, members].reshape(phi.shape[0], num_groups, -1).sum(axis=2))


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
    phi_red = grouped_cascade(channels.cascade, group_of)
    return search_report(refine_batch([phi_red], [channels.h_d], levels,
                                      [tx_power], [noise_power], epsilon,
                                      max_outer_iters)[0], levels, group_of=group_of)


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
    return search_report(refine_batch([estimate.cascade], [estimate.h_d], levels,
                                      [tx_power], [noise_power], epsilon,
                                      max_outer_iters, record_configs=True)[0],
                         levels, truth=(true_channels, tx_power, noise_power))
