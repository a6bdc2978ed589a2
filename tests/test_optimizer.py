"""Successive refinement, brute-force oracle, grouping, position-based."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import (
    ChannelSet,
    GroupingSpec,
    PhaseConfig,
    Scenario,
    brute_force,
    build_quadratic_form,
    effective_channel,
    grouping_layout,
    los_channel_matrix,
    optimize_grouped,
    optimize_position_based,
    phase_set,
    quadratic_gain,
    quantize_phase,
    rate,
    reflection_vector,
    rician_channel,
    successive_refinement,
)
from irslink import optimizer as optimizer_module

QUANTIZER_LEVELS = (1, 2, 3, 4, 8, 16, 256)


def random_channels(rng, m, n):
    h_r = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    h_v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h_d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return ChannelSet(h_r=h_r, h_v=h_v, h_d=h_d)


def test_phase_set_values():
    assert np.array_equal(phase_set(1), [0.0])
    assert np.allclose(phase_set(4), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                       rtol=0, atol=1e-15)
    assert phase_set(8).shape == (8,)
    with pytest.raises(ValueError):
        phase_set(0)


def test_quantize_reference_points():
    assert quantize_phase(0.0, 4) == 0
    assert quantize_phase(0.2, 1) == 0
    # -pi/3 is pi/6 from 3*pi/2 (circularly) but pi/3 from 0
    assert quantize_phase(-math.pi / 3, 4) == 3
    # exact ties resolve toward the smaller index
    assert quantize_phase(math.pi / 4, 4) == 0
    assert quantize_phase(7 * math.pi / 4, 4) == 0
    assert quantize_phase(math.pi, 2) == 1
    assert quantize_phase(2 * math.pi - 1e-9, 4) == 0


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_phase(0.5, 0)
    with pytest.raises(ValueError):
        quantize_phase(float("nan"), 4)
    with pytest.raises(ValueError):
        quantize_phase(float("inf"), 4)


def test_quantize_matches_direct_search():
    rng = np.random.default_rng(4)
    for _ in range(300):
        levels = int(rng.integers(1, 17))
        target = float(rng.uniform(-20.0, 20.0))
        got = quantize_phase(target, levels)
        grid = np.arange(levels) * 2 * math.pi / levels
        circ = np.abs(np.angle(np.exp(1j * (grid - target))))
        assert circ[got] <= circ.min() + 1e-12


def argmin_quantize(target_angle, levels):
    """Reference quantizer: circular distance to every grid point, first
    index among exact ties."""
    x = math.fmod(target_angle * levels / (2.0 * math.pi), levels)
    if x < 0.0:
        x += levels
    d = np.abs(x - np.arange(levels))
    d = np.minimum(d, levels - d)
    return int(np.argmin(d))


def nudged(angle, steps):
    """angle moved by ``steps`` representable doubles (negative: down)."""
    for _ in range(abs(steps)):
        angle = math.nextafter(angle, math.copysign(math.inf, steps))
    return angle


def tie_angles(levels):
    """Angles of every grid point and every midpoint, one turn either way,
    with their nearest representable neighbours."""
    for half_steps in range(-4 * levels, 4 * levels + 1):
        angle = half_steps * math.pi / levels
        for steps in (-2, -1, 0, 1, 2):
            yield nudged(angle, steps)
    for tiny in (5e-324, 1e-300, 1e-17):
        yield tiny
        yield -tiny


@settings(max_examples=1000, deadline=None)
@given(levels=st.sampled_from(QUANTIZER_LEVELS),
       angle=st.one_of(
           st.floats(-1e3, 1e3, allow_nan=False),
           st.floats(-1e-300, 1e-300, allow_nan=False),
           st.builds(lambda k, n, steps: nudged(k * math.pi / n, steps),
                     st.integers(-1024, 1024), st.sampled_from(QUANTIZER_LEVELS),
                     st.integers(-3, 3))))
def test_quantize_matches_argmin_reference(levels, angle):
    assert quantize_phase(angle, levels) == argmin_quantize(angle, levels)


def test_quantize_matches_argmin_reference_on_every_tie():
    for levels in QUANTIZER_LEVELS:
        for angle in tie_angles(levels):
            assert quantize_phase(angle, levels) == argmin_quantize(angle, levels), (
                levels, angle)


def test_refinement_scalar_instance_exact():
    # one element, h_d = 1, cascade coefficient e^{j pi/3}: of the four
    # quarter-turn phases, 3*pi/2 lands the cascade nearest alignment
    ch = ChannelSet(h_r=np.array([[np.exp(1j * math.pi / 3)]]),
                    h_v=np.array([1.0 + 0j]), h_d=np.array([1.0 + 0j]))
    report = successive_refinement(ch, 4, 1.0, 1.0)
    assert list(report.final_phases.indices) == [3]
    assert report.converged
    form = build_quadratic_form(ch)
    gain = quadratic_gain(form, reflection_vector(report.final_phases))
    assert gain == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 6), rel=1e-12)
    best_cfg, best_rate = brute_force(ch, 4, 1.0, 1.0)
    assert np.array_equal(best_cfg.indices, report.final_phases.indices)
    assert best_rate == pytest.approx(report.rate_trace[-1], rel=1e-12)


def test_refinement_decoupled_objective_is_noop():
    # orthogonal cascade columns and no direct link: every kappa_n = 0,
    # so the initial phases survive and the first sweep converges
    ch = ChannelSet(h_r=np.eye(2), h_v=np.ones(2), h_d=np.zeros(2))
    report = successive_refinement(ch, 4, 1.0, 1.0)
    assert list(report.final_phases.indices) == [0, 0]
    assert report.iterations == 1
    assert report.converged
    assert report.accepted_moves == 0
    assert report.rate_trace[0] == report.rate_trace[-1]


def test_refinement_trace_monotone_and_bounded():
    rng = np.random.default_rng(14)
    for trial in range(25):
        ch = random_channels(rng, 2, 12)
        report = successive_refinement(ch, 4, 1.0, 1.0)
        trace = report.rate_trace
        assert len(trace) == report.iterations + 1
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert report.iterations <= 100
        assert report.converged
        # the recorded final rate agrees with a from-scratch evaluation
        direct = rate(ch, report.final_phases, 1.0, 1.0)
        assert trace[-1] == pytest.approx(direct, rel=1e-10)


def test_refinement_iteration_cap():
    rng = np.random.default_rng(31)
    ch = random_channels(rng, 2, 24)
    report = successive_refinement(ch, 8, 1.0, 1.0, epsilon=1e-15,
                                   max_outer_iters=1)
    assert report.iterations == 1
    assert not report.converged
    assert len(report.rate_trace) == 2


def test_refinement_validates_args():
    ch = ChannelSet(h_r=np.ones((1, 2)), h_v=np.ones(2), h_d=np.ones(1))
    with pytest.raises(ValueError):
        successive_refinement(ch, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        successive_refinement(ch, 4, 1.0, 1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        successive_refinement(ch, 4, 1.0, 1.0, max_outer_iters=0)


def test_search_settings_rule_on_every_entry_point():
    # one rule for all three searches: levels an integer in [1, 65536],
    # epsilon > 0, max_outer_iters an integer >= 1, always as ValueError
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
    ch = rician_channel(scn, np.random.default_rng(2))
    searches = (
        lambda **kw: successive_refinement(ch, tx_power=1.0, noise_power=1.0, **kw),
        lambda **kw: optimize_grouped(ch, (4, 4), GroupingSpec(2, 2), tx_power=1.0,
                                      noise_power=1.0, **kw),
        lambda **kw: optimize_position_based(scn, ch, tx_power=1.0,
                                             noise_power=1.0, **kw),
    )
    for search in searches:
        for levels, match in ((0, r"levels must be in \[1, 65536\], got 0"),
                              (65537, r"levels must be in \[1, 65536\], got 65537"),
                              (2.5, "levels must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=match):
                search(levels=levels)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            search(levels=4, epsilon=0.0)
        for iters in (0, 2.5):
            with pytest.raises(ValueError, match="max_outer_iters must be >= 1"):
                search(levels=4, max_outer_iters=iters)
        assert search(levels=65536, max_outer_iters=1).iterations == 1


def test_oracle_sandwich_on_random_batch():
    # unstructured instances stress the sandwich invariant itself; with
    # direct and cascade links of equal strength, coordinate ascent can
    # stop at local optima, so no near-optimality is claimed here
    rng = np.random.default_rng(100)
    for trial in range(40):
        ch = random_channels(rng, 2, 6)
        _, best_rate = brute_force(ch, 2, 1.0, 1.0)
        report = successive_refinement(ch, 2, 1.0, 1.0)
        init_rate = report.rate_trace[0]
        assert report.rate_trace[-1] <= best_rate * (1 + 1e-12)
        assert report.rate_trace[-1] >= init_rate - 1e-12


def test_refinement_near_optimal_on_model_channels():
    # on channels from the scenario generator the cascade is LOS heavy
    # and the direct link dominates, where the search is reliably tight
    scn = Scenario(bs_rows=2, bs_cols=1, irs_rows=3, irs_cols=2)
    for t in range(25):
        ch = rician_channel(scn, np.random.default_rng(1000 + t))
        form = build_quadratic_form(ch)
        cfg, _ = brute_force(ch, 2, scn.tx_power, scn.n0)
        best_gain = quadratic_gain(form, reflection_vector(cfg))
        report = successive_refinement(ch, 2, scn.tx_power, scn.n0)
        got = quadratic_gain(form, reflection_vector(report.final_phases))
        assert got >= 0.95 * best_gain
        assert got <= best_gain * (1 + 1e-12)


def test_single_substitution_optimality():
    # at termination no single-element phase change improves the gain
    rng = np.random.default_rng(55)
    for trial in range(15):
        n, levels = 6, 4
        ch = random_channels(rng, 2, n)
        report = successive_refinement(ch, levels, 1.0, 1.0)
        form = build_quadratic_form(ch)
        idx = report.final_phases.indices
        table = np.exp(1j * np.arange(levels) * 2 * math.pi / levels)
        base = quadratic_gain(form, table[idx])
        for pos in range(n):
            for k in range(levels):
                if k == idx[pos]:
                    continue
                alt = idx.copy()
                alt[pos] = k
                assert quadratic_gain(form, table[alt]) <= base * (1 + 1e-12)


def test_brute_force_flat_objective_tie_rule():
    # silent IRS: all configs score the same, the first one wins
    rng = np.random.default_rng(8)
    ch = ChannelSet(h_r=rng.standard_normal((2, 3)) + 0j, h_v=np.zeros(3),
                    h_d=rng.standard_normal(2) + 0j)
    cfg, best_rate = brute_force(ch, 3, 1.0, 1.0)
    assert list(cfg.indices) == [0, 0, 0]
    assert best_rate == pytest.approx(
        rate(ch, PhaseConfig(indices=np.zeros(3, dtype=int), levels=3), 1.0, 1.0))


def test_brute_force_single_level():
    rng = np.random.default_rng(12)
    ch = random_channels(rng, 2, 4)
    cfg, best_rate = brute_force(ch, 1, 1.0, 1.0)
    assert list(cfg.indices) == [0, 0, 0, 0]
    assert best_rate == pytest.approx(rate(ch, cfg, 1.0, 1.0), rel=1e-12)


def test_brute_force_budget_guard():
    ch = ChannelSet(h_r=np.ones((1, 21)), h_v=np.ones(21), h_d=np.ones(1))
    with pytest.raises(ValueError, match="enumeration budget"):
        brute_force(ch, 2, 1.0, 1.0)
    # a tightened budget trips on small problems, a raised one lifts
    small = ChannelSet(h_r=np.ones((1, 3)), h_v=np.ones(3), h_d=np.ones(1))
    with pytest.raises(ValueError, match="enumeration budget"):
        brute_force(small, 4, 1.0, 1.0, budget=63)
    cfg, _ = brute_force(small, 4, 1.0, 1.0, budget=64)
    assert cfg.indices.shape == (3,)


def test_grouping_layout_tiling():
    layout = grouping_layout((6, 6), GroupingSpec(2, 2))
    grid = layout.reshape(6, 6)
    assert layout.max() == 8
    assert grid[0, 0] == grid[1, 1] == 0
    assert grid[0, 2] == 1
    assert grid[2, 0] == 3
    assert grid[5, 5] == 8
    # every group has exactly group_rows*group_cols members
    counts = np.bincount(layout)
    assert np.all(counts == 4)


def test_grouping_layout_identity_and_whole_array():
    assert np.array_equal(grouping_layout((3, 4), GroupingSpec(1, 1)),
                          np.arange(12))
    assert np.array_equal(grouping_layout((3, 4), GroupingSpec(3, 4)),
                          np.zeros(12, dtype=int))


def test_grouping_layout_must_divide():
    with pytest.raises(ValueError, match="does not"):
        grouping_layout((16, 16), GroupingSpec(3, 3))
    with pytest.raises(ValueError):
        GroupingSpec(0, 2)


def test_grouped_1x1_identical_to_ungrouped():
    scn = Scenario(irs_rows=4, irs_cols=4)
    ch = rician_channel(scn, np.random.default_rng(77))
    plain = successive_refinement(ch, 4, scn.tx_power, scn.n0)
    via_groups = optimize_grouped(ch, (4, 4), GroupingSpec(1, 1), 4,
                                  scn.tx_power, scn.n0)
    assert np.array_equal(plain.final_phases.indices,
                          via_groups.final_phases.indices)
    assert plain.rate_trace == via_groups.rate_trace
    assert plain.iterations == via_groups.iterations


def test_grouped_whole_array_matches_enumeration():
    # a single group leaves one variable; check against trying all L
    # common phases directly on the full channels
    scn = Scenario(irs_rows=3, irs_cols=3)
    ch = rician_channel(scn, np.random.default_rng(13))
    levels = 8
    report = optimize_grouped(ch, (3, 3), GroupingSpec(3, 3), levels,
                              scn.tx_power, scn.n0)
    rates = [rate(ch, PhaseConfig(indices=np.full(9, k), levels=levels),
                  scn.tx_power, scn.n0) for k in range(levels)]
    assert report.rate_trace[-1] == pytest.approx(max(rates), rel=1e-12)
    assert list(np.unique(report.final_phases.indices)) == [
        int(np.argmax(rates))]


def test_grouped_shape_mismatch():
    ch = ChannelSet(h_r=np.ones((2, 6)), h_v=np.ones(6), h_d=np.ones(2))
    with pytest.raises(ValueError):
        optimize_grouped(ch, (4, 4), GroupingSpec(2, 2), 4, 1.0, 1.0)


def test_grouped_expands_groupwise():
    scn = Scenario(irs_rows=4, irs_cols=4)
    ch = rician_channel(scn, np.random.default_rng(20))
    report = optimize_grouped(ch, (4, 4), GroupingSpec(2, 2), 4,
                              scn.tx_power, scn.n0)
    grid = report.final_phases.indices.reshape(4, 4)
    for r in range(0, 4, 2):
        for c in range(0, 4, 2):
            block = grid[r:r + 2, c:c + 2]
            assert np.all(block == block[0, 0])


def masked_group_cascade(phi, group_of):
    """Group-summed Phi, one boolean mask and one sum per group."""
    num_groups = int(group_of.max()) + 1
    out = np.empty((phi.shape[0], num_groups), dtype=np.complex128)
    for g in range(num_groups):
        out[:, g] = phi[:, group_of == g].sum(axis=1)
    return out


@pytest.mark.parametrize("shape, group", [
    ((16, 16), (2, 2)), ((16, 16), (4, 4)), ((64, 64), (4, 4)),
    ((6, 9), (3, 3)), ((16, 16), (1, 1)), ((6, 9), (1, 1)),
], ids=["16x16-2x2", "16x16-4x4", "64x64-4x4", "6x9-3x3", "16x16-1x1", "6x9-1x1"])
def test_grouped_cascade_matches_masked_sum_bit_for_bit(monkeypatch, shape, group):
    scn = Scenario(irs_rows=shape[0], irs_cols=shape[1])
    ch = rician_channel(scn, np.random.default_rng(shape[0] * shape[1]))
    grouping = GroupingSpec(*group)
    seen = []
    real_refine = optimizer_module.refine_batch

    def recording_refine(phis, *args, **kwargs):
        phis = list(phis)
        seen.extend(phis)
        return real_refine(phis, *args, **kwargs)

    monkeypatch.setattr(optimizer_module, "refine_batch", recording_refine)
    optimize_grouped(ch, shape, grouping, 4, scn.tx_power, scn.n0)
    want = masked_group_cascade(ch.cascade, grouping_layout(shape, grouping))
    assert len(seen) == 1
    # the layout too: the search's products differ in the last bits by it
    assert (seen[0].shape, seen[0].strides) == (want.shape, want.strides)
    assert seen[0].tobytes() == want.tobytes()


def test_position_based_exact_when_channels_are_los():
    scn = Scenario(irs_rows=4, irs_cols=4, beta_r=math.inf, beta_v=math.inf,
                   beta_d=math.inf)
    truth = rician_channel(scn, np.random.default_rng(3))
    pos = optimize_position_based(scn, truth, 4, scn.tx_power, scn.n0)
    full = successive_refinement(truth, 4, scn.tx_power, scn.n0)
    assert np.array_equal(pos.final_phases.indices, full.final_phases.indices)
    assert pos.rate_trace[-1] == full.rate_trace[-1]


def test_position_based_never_beats_full_csi():
    scn = Scenario(irs_rows=4, irs_cols=4)
    for seed in range(8):
        truth = rician_channel(scn, np.random.default_rng(seed))
        pos = optimize_position_based(scn, truth, 4, scn.tx_power, scn.n0)
        full = successive_refinement(truth, 4, scn.tx_power, scn.n0)
        assert pos.rate_trace[-1] <= full.rate_trace[-1] * (1 + 1e-12)


def test_position_based_trace_scored_on_truth():
    scn = Scenario(irs_rows=4, irs_cols=4)
    truth = rician_channel(scn, np.random.default_rng(41))
    report = optimize_position_based(scn, truth, 4, scn.tx_power, scn.n0)
    zeros = PhaseConfig(indices=np.zeros(16, dtype=int), levels=4)
    assert report.rate_trace[0] == pytest.approx(
        rate(truth, zeros, scn.tx_power, scn.n0), rel=1e-12)
    assert report.rate_trace[-1] == pytest.approx(
        rate(truth, report.final_phases, scn.tx_power, scn.n0), rel=1e-12)


def test_position_based_dimension_check():
    scn = Scenario(irs_rows=4, irs_cols=4)
    wrong = ChannelSet(h_r=np.ones((8, 9)), h_v=np.ones(9), h_d=np.ones(8))
    with pytest.raises(ValueError):
        optimize_position_based(scn, wrong, 4, scn.tx_power, scn.n0)


def test_position_based_estimate_scale_invariance():
    # scaling the vehicle-IRS estimate scales Phi and b together, which
    # leaves every kappa_n angle alone; the chosen config must not move
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
    est = los_channel_matrix(scn)
    base = successive_refinement(est, 4, scn.tx_power, scn.n0)
    for scale in (0.5, 2.0, 10.0):
        scaled = ChannelSet(h_r=est.h_r, h_v=scale * est.h_v, h_d=est.h_d)
        got = successive_refinement(scaled, 4, scn.tx_power, scn.n0)
        assert np.array_equal(base.final_phases.indices,
                              got.final_phases.indices)


def test_power_noise_common_scaling_leaves_argmax():
    rng = np.random.default_rng(62)
    ch = random_channels(rng, 2, 10)
    a = successive_refinement(ch, 4, 0.1, 1e-9)
    b = successive_refinement(ch, 4, 0.1 * 7.3, 1e-9 * 7.3)
    assert np.array_equal(a.final_phases.indices, b.final_phases.indices)
    assert np.allclose(a.rate_trace, b.rate_trace, rtol=1e-12)


def reference_refine(form, levels, tx_power, noise_power, epsilon=1e-6,
                     max_outer_iters=100):
    """Reference coordinate ascent on the N x N quadratic form, from zero
    phases.

    Tracks w = A v, recomputed at the start of every sweep, and rounds
    with ``argmin_quantize``. Returns (indices, trace, iterations,
    converged, accepted moves, index vector after init and each sweep).
    """
    size = form.b.shape[0]
    table = np.exp(1j * np.arange(levels) * (2.0 * np.pi / levels))
    idx = np.zeros(size, dtype=np.int64)
    v = table[idx]
    gain = quadratic_gain(form, v)
    trace = [math.log2(1.0 + tx_power * gain / noise_power)]
    configs = [idx.copy()]
    diag = np.real(np.diag(form.a))
    iterations, accepted, converged = 0, 0, False
    for _ in range(max_outer_iters):
        w = form.a @ v
        for n in range(size):
            kappa = w[n] - diag[n] * v[n] + form.b[n]
            if kappa == 0.0:
                continue
            best = argmin_quantize(math.atan2(kappa.imag, kappa.real), levels)
            if best == idx[n]:
                continue
            gain_step = 2.0 * ((table[best] - v[n]).conjugate() * kappa).real
            if gain_step > 0.0:
                w += form.a[:, n] * (table[best] - v[n])
                v[n] = table[best]
                idx[n] = best
                gain += gain_step
                accepted += 1
        iterations += 1
        trace.append(math.log2(1.0 + tx_power * gain / noise_power))
        configs.append(idx.copy())
        if abs(trace[-1] - trace[-2]) <= epsilon:
            converged = True
            break
    return idx, trace, iterations, converged, accepted, configs


def reference_report(scn, truth, scheme, levels=4):
    """(indices, trace, iterations, converged, accepted) of one scheme by
    the reference loop on the N x N form."""
    p, n0 = scn.tx_power, scn.n0
    if scheme == "position_based":
        form = build_quadratic_form(los_channel_matrix(scn))
        idx, _, its, conv, acc, configs = reference_refine(form, levels, p, n0)
        trace = [rate(truth, PhaseConfig(indices=cfg, levels=levels), p, n0)
                 for cfg in configs]
        return idx, trace, its, conv, acc
    if scheme == "full_csi":
        idx, trace, its, conv, acc, _ = reference_refine(
            build_quadratic_form(truth), levels, p, n0)
        return idx, trace, its, conv, acc
    group_of = grouping_layout((scn.irs_rows, scn.irs_cols), GroupingSpec(2, 2))
    num_groups = int(group_of.max()) + 1
    phi = truth.h_r * truth.h_v[np.newaxis, :]
    phi_red = np.stack([phi[:, group_of == g].sum(axis=1)
                        for g in range(num_groups)], axis=1)
    reduced = ChannelSet(h_r=phi_red, h_v=np.ones(num_groups), h_d=truth.h_d)
    idx, trace, its, conv, acc, _ = reference_refine(
        build_quadratic_form(reduced), levels, p, n0)
    return idx[group_of], trace, its, conv, acc


@pytest.mark.parametrize("scheme", ["full_csi", "grouped_2x2", "position_based"])
def test_rank_m_search_matches_n_by_n_reference(scheme):
    cases = [(Scenario(irs_rows=16, irs_cols=16, c_v=float(seed % 21 - 10)), seed)
             for seed in range(20)]
    cases.append((Scenario(irs_rows=32, irs_cols=32, c_v=-3.0), 20))
    for scn, seed in cases:
        truth = rician_channel(scn, np.random.default_rng(seed))
        p, n0 = scn.tx_power, scn.n0
        if scheme == "full_csi":
            report = successive_refinement(truth, 4, p, n0)
        elif scheme == "grouped_2x2":
            report = optimize_grouped(truth, (scn.irs_rows, scn.irs_cols),
                                      GroupingSpec(2, 2), 4, p, n0)
        else:
            report = optimize_position_based(scn, truth, 4, p, n0)
        idx, trace, its, conv, acc = reference_report(scn, truth, scheme)
        assert np.array_equal(report.final_phases.indices, idx), seed
        assert report.iterations == its, seed
        assert report.converged == conv, seed
        assert report.accepted_moves == acc > 0, seed
        assert len(report.rate_trace) == len(trace)
        assert np.allclose(report.rate_trace, trace, rtol=1e-12, atol=0), seed


# ------------------------------------------------------------ batched search


def batch_case(seed, m, n, num, problems, zero_cols, integer):
    """(phis, h_ds, problem_of, tx_powers, noise_powers) of a batch.

    Integer-valued channels put many cross-terms exactly on a rounding
    boundary, which exercises the tie rule; Gaussian ones do not.
    """
    rng = np.random.default_rng(seed)

    def entries(shape):
        if integer:
            return (rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)).astype(
                np.complex128)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    phis = [entries((m, n)) for _ in range(problems)]
    for phi in phis:
        phi[:, rng.random(n) < zero_cols] = 0.0
    h_ds = [entries(m) for _ in range(problems)]
    problem_of = rng.integers(0, problems, num)
    tx_powers = 10.0 ** rng.uniform(-3, 1, num)
    noise_powers = 10.0 ** rng.uniform(-2, 0, num)
    return phis, h_ds, problem_of, tx_powers, noise_powers


def scalar_searches(case, levels, epsilon, max_outer_iters, record_configs=False):
    """Each search of a case run alone, which sweeps in Python."""
    phis, h_ds, problem_of, tx_powers, noise_powers = case
    return [optimizer_module.refine_batch([phis[p]], [h_ds[p]], levels,
                                          [tx_powers[t]], [noise_powers[t]], epsilon,
                                          max_outer_iters,
                                          record_configs=record_configs)[0]
            for t, p in enumerate(problem_of)]


def numpy_pass(function, *args, **kwargs):
    """``function(*args, **kwargs)`` with every search run through the numpy
    pass, however few there are."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "BATCH_MIN_SEARCHES", 1)
        return function(*args, **kwargs)


def batch_searches(case, levels, epsilon, max_outer_iters, record_configs=False):
    """The searches of a case as one batch, through the numpy pass; searches
    of one problem get the same arrays."""
    phis, h_ds, problem_of, tx_powers, noise_powers = case
    return numpy_pass(optimizer_module.refine_batch, (phis[p] for p in problem_of),
                      [h_ds[p] for p in problem_of], levels, tx_powers, noise_powers,
                      epsilon, max_outer_iters,
                      record_configs=record_configs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 24),
       levels=st.sampled_from((1, 2, 3, 4, 8, 16)), num=st.integers(1, 6),
       problems=st.integers(1, 3), zero_cols=st.sampled_from((0.0, 0.3, 1.0)),
       integer=st.booleans(), epsilon=st.sampled_from((1e-6, 1e-3, 1e-12)),
       max_outer_iters=st.sampled_from((1, 2, 100)), record=st.booleans())
def test_refine_batch_matches_scalar_search(seed, m, n, levels, num, problems,
                                            zero_cols, integer, epsilon,
                                            max_outer_iters, record):
    case = batch_case(seed, m, n, num, problems, zero_cols, integer)
    want = scalar_searches(case, levels, epsilon, max_outer_iters, record)
    got = batch_searches(case, levels, epsilon, max_outer_iters, record)
    assert len(got) == len(want)
    for (idx, trace, its, conv, acc, configs), ref in zip(got, want):
        assert np.array_equal(idx, ref[0])
        assert (its, conv, acc) == ref[2:5]
        assert np.allclose(trace, ref[1], rtol=1e-15, atol=0)
        if record:
            assert np.array_equal(configs, ref[5])
        else:
            assert configs is None


def test_refine_batch_search_alone_equals_search_in_batch():
    # one search gives the same bits whatever runs beside it, and the
    # batch's searches stop at different sweeps
    phis, h_ds, problem_of, tx_powers, noise_powers = batch_case(
        7, 8, 64, 40, 40, 0.0, False)
    together = batch_searches((phis, h_ds, range(40), tx_powers, noise_powers),
                              4, 1e-6, 100)
    assert len({found[2] for found in together}) > 1
    for t in range(40):
        alone = batch_searches(([phis[t]], [h_ds[t]], [0], tx_powers[t:t + 1],
                                noise_powers[t:t + 1]), 4, 1e-6, 100)[0]
        assert np.array_equal(alone[0], together[t][0])
        assert alone[1] == together[t][1]
        assert alone[2:5] == together[t][2:5]


def test_python_sweep_matches_numpy_pass_at_64x64():
    # a Rician draw and its LOS estimate on a 64 x 64 surface: about 3000
    # moves in the first sweep and a few in each of the later ones
    scn = Scenario(irs_rows=64, irs_cols=64)
    draw = rician_channel(scn, np.random.default_rng(5))
    estimate = los_channel_matrix(scn)
    case = ([draw.cascade, estimate.cascade], [draw.h_d, estimate.h_d], [0, 1],
            [scn.tx_power] * 2, [scn.n0] * 2)
    want = scalar_searches(case, 4, 1e-6, 100)
    got = batch_searches(case, 4, 1e-6, 100)
    for (idx, trace, its, conv, acc, _), ref in zip(got, want):
        assert acc > 3000
        assert np.array_equal(idx, ref[0])
        assert trace == ref[1]
        assert (its, conv, acc) == ref[2:5]


def batch_rounding(angles, levels):
    x = np.array(angles, dtype=np.float64)
    best, tie = np.empty_like(x), np.empty(x.shape, dtype=bool)
    optimizer_module._nearest_levels(x, levels, best, tie)
    assert np.all((0 <= best) & (best <= levels) & (best == np.floor(best)))
    return (best % levels).astype(np.int64).tolist()


def test_batch_rounding_matches_nearest_level_on_every_tie():
    for levels in QUANTIZER_LEVELS + (5, 7):
        angles = list(tie_angles(levels))
        assert batch_rounding(angles, levels) == [
            optimizer_module._nearest_level(a, levels) for a in angles], levels


@settings(max_examples=300, deadline=None)
@given(levels=st.sampled_from(QUANTIZER_LEVELS),
       angles=st.lists(st.one_of(
           st.floats(-1e3, 1e3, allow_nan=False),
           st.floats(-1e-300, 1e-300, allow_nan=False),
           st.builds(lambda k, n, steps: nudged(k * math.pi / n, steps),
                     st.integers(-1024, 1024), st.sampled_from(QUANTIZER_LEVELS),
                     st.integers(-3, 3))), min_size=1, max_size=20))
def test_batch_rounding_matches_nearest_level(levels, angles):
    assert batch_rounding(angles, levels) == [
        optimizer_module._nearest_level(a, levels) for a in angles]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
       shape=st.sampled_from(((2, 2), (4, 4), (2, 6), (6, 4))),
       group=st.sampled_from(((1, 1), (2, 2), (1, 2), (2, 1))),
       levels=st.sampled_from((2, 3, 4, 8)))
def test_full_csi_and_grouped_traces_are_monotone(seed, m, shape, group, levels):
    rng = np.random.default_rng(seed)
    ch = random_channels(rng, m, shape[0] * shape[1])
    p, n0 = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-2, 0)
    group_of = grouping_layout(shape, GroupingSpec(*group))
    phi_red = optimizer_module.grouped_cascade(ch.cascade, group_of)
    batched = [numpy_pass(optimizer_module.refine_batch, [phi], [ch.h_d], levels,
                          [p], [n0], 1e-9, 100)[0][1]
               for phi in (ch.cascade, phi_red)]
    for trace in (successive_refinement(ch, levels, p, n0, epsilon=1e-9).rate_trace,
                  optimize_grouped(ch, shape, GroupingSpec(*group), levels, p, n0,
                                   epsilon=1e-9).rate_trace, *batched):
        assert all(b >= a for a, b in zip(trace, trace[1:]))
    with pytest.raises(ValueError, match="like problem 0"):
        optimizer_module.refine_batch([ch.cascade, np.ones((1, 1))], [ch.h_d] * 2,
                                      levels, [p, p], [n0, n0], 1e-9, 100)
