"""Independent reference for the optimizer and scoring layers.

The benchmark checks every op against this module. It takes the channel
draws as inputs (drawn with irslink's public ``rician_channel`` and
``los_channel_matrix``, as the program itself does) and recomputes each
scheme's phases and rate without calling irslink's optimizer or link code.

The search is the same cyclic coordinate ascent with the same tie rules
as ``irslink.optimizer._refine``, but written in the rank-M form: it
tracks y = Phi v + h_d, so that kappa_n = phi_n^H y - ||phi_n||^2 v_n
costs O(M) per element and no N x N matrix is built. Phases therefore
agree exactly with the program, and rates to rounding (checked at 1e-9
relative), unless a decision sits within rounding of a tie.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from irslink.channel import los_channel_matrix, rician_channel

RATE_RTOL = 1e-9


def quantize(angle: float, levels: int) -> int:
    """Nearest member of the L-phase set; exact ties go to the smaller index."""
    x = math.fmod(angle * levels / (2.0 * math.pi), levels)
    if x < 0.0:
        x += levels
    best, best_d = 0, math.inf
    for k in range(levels):
        d = abs(x - k)
        d = min(d, levels - d)
        if d < best_d:
            best, best_d = k, d
    return best


def coordinate_ascent(phi, h_d, levels, tx_power, noise, epsilon, max_iters):
    """Phase indices maximizing ||phi v + h_d||^2, from all-zero phases."""
    size = phi.shape[1]
    table = np.exp(1j * np.arange(levels) * (2.0 * np.pi / levels)).tolist()
    cols = np.ascontiguousarray(phi.T)
    norms = (np.abs(phi) ** 2).sum(axis=0).tolist()
    idx = [0] * size
    v = [table[0]] * size
    y = phi @ np.array(v) + h_d
    gain = float(np.vdot(y, y).real)
    rates = [math.log2(1.0 + tx_power * gain / noise)]
    for _ in range(max_iters):
        for n in range(size):
            kappa = complex(np.vdot(cols[n], y)) - norms[n] * v[n]
            if kappa == 0.0:
                continue
            best = quantize(math.atan2(kappa.imag, kappa.real), levels)
            if best == idx[n]:
                continue
            delta = table[best] - v[n]
            step = 2.0 * (delta.conjugate() * kappa).real
            if step > 0.0:
                y += cols[n] * delta
                v[n] = table[best]
                idx[n] = best
                gain += step
        rates.append(math.log2(1.0 + tx_power * gain / noise))
        if abs(rates[-1] - rates[-2]) <= epsilon:
            break
    return np.array(idx, dtype=np.int64)


def rate(channels, idx, levels, tx_power, noise) -> float:
    """log2(1 + P ||h_d + H_r diag(v) h_v||^2 / N0); idx None means no surface."""
    h = channels.h_d
    if idx is not None:
        v = np.exp(1j * (2.0 * np.pi / levels) * idx)
        h = h + channels.h_r @ (v * channels.h_v)
    return math.log2(1.0 + tx_power * float(np.vdot(h, h).real) / noise)


def grouped_phi(phi, irs_shape, group_rows, group_cols):
    """Columns of phi summed over row-major group_rows x group_cols tiles."""
    m = phi.shape[0]
    rows, cols = irs_shape
    blocks = phi.reshape(m, rows // group_rows, group_rows,
                         cols // group_cols, group_cols)
    return blocks.sum(axis=(2, 4)).reshape(m, -1)


def expand_groups(red_idx, irs_shape, group_rows, group_cols):
    rows, cols = irs_shape
    grid = red_idx.reshape(rows // group_rows, cols // group_cols)
    return np.repeat(np.repeat(grid, group_rows, axis=0), group_cols, axis=1).ravel()


def solve(scenario, channels, label, levels, epsilon, max_iters, los=None):
    """(phase indices or None, rate) of one scheme on one channel draw.

    ``los`` optionally supplies the position-based LOS search result so
    callers can reuse it across draws of the same geometry.
    """
    p, n0 = scenario.tx_power, scenario.n0
    if label == "no_irs":
        return None, rate(channels, None, levels, p, n0)
    if label == "position_based":
        idx = los if los is not None else los_search(scenario, levels, epsilon,
                                                     max_iters)
        return idx, rate(channels, idx, levels, p, n0)
    phi = channels.h_r * channels.h_v[np.newaxis, :]
    if label == "full_csi":
        idx = coordinate_ascent(phi, channels.h_d, levels, p, n0, epsilon,
                                max_iters)
    elif label.startswith("grouped_"):
        gr, gc = (int(x) for x in label[len("grouped_"):].split("x"))
        shape = (scenario.irs_rows, scenario.irs_cols)
        red = coordinate_ascent(grouped_phi(phi, shape, gr, gc), channels.h_d,
                                levels, p, n0, epsilon, max_iters)
        idx = expand_groups(red, shape, gr, gc)
    else:
        raise ValueError(f"unknown scheme label {label!r}")
    return idx, rate(channels, idx, levels, p, n0)


def los_search(scenario, levels, epsilon, max_iters):
    los = los_channel_matrix(scenario)
    phi = los.h_r * los.h_v[np.newaxis, :]
    return coordinate_ascent(phi, los.h_d, levels, scenario.tx_power,
                             scenario.n0, epsilon, max_iters)


def trial_seed(master_seed: int, trial_index: int) -> int:
    seq = np.random.SeedSequence([int(master_seed), int(trial_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def value_scenario(spec, value):
    if spec.swept_variable == "vehicle_offset_c_v":
        return replace(spec.base_scenario, c_v=float(value))
    if spec.swept_variable == "tx_power":
        return replace(spec.base_scenario,
                       tx_power=10.0 ** (float(value) / 10.0) / 1000.0)
    return spec.base_scenario


def sweep_rates(spec, master_seed):
    """Reference per-trial rates {(scheme label, value): [rate per trial]}."""
    out = {}
    draws = {}
    for scheme in spec.schemes:
        for value in spec.sweep_values:
            scenario = value_scenario(spec, value)
            levels = (2 ** int(value) if spec.swept_variable == "quantization_bits"
                      else spec.levels)
            los = None
            if scheme.label == "position_based":
                los = los_search(scenario, levels, spec.epsilon,
                                 spec.max_outer_iters)
            rates = []
            for t in range(spec.trials):
                key = (t, scenario.c_v)
                if key not in draws:
                    rng = np.random.default_rng(trial_seed(master_seed, t))
                    draws[key] = rician_channel(scenario, rng)
                _, r = solve(scenario, draws[key], scheme.label, levels,
                             spec.epsilon, spec.max_outer_iters, los=los)
                rates.append(r)
            out[(scheme.label, float(value))] = rates
    return out


def rate_matches(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RATE_RTOL * abs(want)
