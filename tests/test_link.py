"""Effective channel, quadratic form and its per-element split, SNR, rate."""

import math

import numpy as np
import pytest

from irslink import (
    ChannelSet,
    PhaseConfig,
    QuadraticForm,
    build_quadratic_form,
    effective_channel,
    element_local_terms,
    quadratic_gain,
    rate,
    reflection_vector,
    snr,
)


def random_channels(rng, m, n):
    h_r = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    h_v = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    h_d = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return ChannelSet(h_r=h_r, h_v=h_v, h_d=h_d)


def test_phase_config_phases_and_validation():
    cfg = PhaseConfig(indices=np.array([0, 1, 2, 3]), levels=4)
    assert np.allclose(cfg.phases, [0, math.pi / 2, math.pi, 3 * math.pi / 2])
    with pytest.raises(ValueError):
        PhaseConfig(indices=np.array([0, 4]), levels=4)
    with pytest.raises(ValueError):
        PhaseConfig(indices=np.array([-1]), levels=4)
    with pytest.raises(ValueError):
        PhaseConfig(indices=np.zeros((2, 2), dtype=int), levels=4)
    with pytest.raises(ValueError):
        PhaseConfig(indices=np.array([0]), levels=0)


def test_phase_config_indices_read_only():
    cfg = PhaseConfig(indices=np.array([1, 2]), levels=4)
    with pytest.raises(ValueError):
        cfg.indices[0] = 3


def test_reflection_vector_examples():
    assert np.array_equal(
        reflection_vector(PhaseConfig(indices=np.zeros(5, dtype=int), levels=4)),
        np.ones(5, dtype=complex))
    half = reflection_vector(PhaseConfig(indices=np.array([1]), levels=2))
    assert half[0] == pytest.approx(-1.0 + 0.0j, abs=1e-15)
    quarter = reflection_vector(PhaseConfig(indices=np.arange(4), levels=4))
    assert np.allclose(quarter, [1, 1j, -1, -1j], rtol=0, atol=1e-15)


def test_effective_channel_silent_irs():
    rng = np.random.default_rng(0)
    ch = ChannelSet(h_r=rng.standard_normal((3, 4)) + 0j,
                    h_v=np.zeros(4), h_d=rng.standard_normal(3) + 0j)
    cfg = PhaseConfig(indices=np.array([0, 1, 2, 3]), levels=4)
    assert np.array_equal(effective_channel(ch, cfg), ch.h_d)


def test_effective_channel_scalar_cases():
    ch = ChannelSet(h_r=np.ones((1, 1)), h_v=np.ones(1), h_d=np.ones(1))
    aligned = effective_channel(ch, PhaseConfig(indices=np.array([0]), levels=2))
    assert aligned[0] == pytest.approx(2.0 + 0.0j, abs=1e-15)
    opposed = effective_channel(ch, PhaseConfig(indices=np.array([1]), levels=2))
    assert abs(opposed[0]) < 1e-15


def test_effective_channel_size_mismatch():
    ch = ChannelSet(h_r=np.ones((2, 3)), h_v=np.ones(3), h_d=np.ones(2))
    with pytest.raises(ValueError):
        effective_channel(ch, PhaseConfig(indices=np.zeros(2, dtype=int), levels=4))


def test_quadratic_form_hand_expansion():
    ch = ChannelSet(h_r=np.ones((1, 1)), h_v=np.ones(1), h_d=np.ones(1))
    form = build_quadratic_form(ch)
    assert np.allclose(form.a, [[1.0]])
    assert np.allclose(form.b, [1.0])
    assert form.c == 1.0
    # theta = 0: |1 + 1|^2 = 4
    assert quadratic_gain(form, np.array([1.0 + 0.0j])) == pytest.approx(4.0)


def test_quadratic_form_silent_irs():
    rng = np.random.default_rng(5)
    h_d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ch = ChannelSet(h_r=rng.standard_normal((3, 4)) + 0j,
                    h_v=np.zeros(4), h_d=h_d)
    form = build_quadratic_form(ch)
    assert np.all(form.a == 0)
    assert np.all(form.b == 0)
    assert form.c == pytest.approx(float(np.vdot(h_d, h_d).real), rel=1e-15)


def test_quadratic_form_matches_direct_eval():
    rng = np.random.default_rng(11)
    worst = 0.0
    for m, n in ((1, 4), (2, 8), (4, 16), (8, 32)):
        ch = random_channels(rng, m, n)
        form = build_quadratic_form(ch)
        for _ in range(20):
            levels = int(rng.integers(2, 9))
            cfg = PhaseConfig(indices=rng.integers(0, levels, size=n),
                              levels=levels)
            h_eff = effective_channel(ch, cfg)
            direct = float(np.vdot(h_eff, h_eff).real)
            via_form = quadratic_gain(form, reflection_vector(cfg))
            worst = max(worst, abs(via_form - direct) / direct)
    assert worst < 1e-10


def test_quadratic_a_hermitian_psd():
    rng = np.random.default_rng(21)
    for m, n in ((2, 6), (4, 12), (8, 24)):
        form = build_quadratic_form(random_channels(rng, m, n))
        assert np.array_equal(form.a, form.a.conj().T)
        eig = np.linalg.eigvalsh(form.a)
        assert eig.min() >= -1e-10 * np.linalg.norm(form.a)


def test_local_terms_reconstruct_gain():
    rng = np.random.default_rng(33)
    ch = random_channels(rng, 3, 4)
    form = build_quadratic_form(ch)
    v = np.exp(1j * rng.uniform(0, 2 * math.pi, size=4))
    for n in range(4):
        kappa, tau = element_local_terms(form, v, n)
        # identity must hold for any unit-modulus substitution at n
        for theta in (0.0, 0.9, math.pi, 4.4, float(np.angle(v[n]))):
            v_sub = v.copy()
            v_sub[n] = np.exp(1j * theta)
            direct = quadratic_gain(form, v_sub)
            split = 2.0 * (np.conj(v_sub[n]) * kappa).real + tau
            assert split == pytest.approx(direct, rel=1e-10)


def test_local_terms_single_element():
    ch = ChannelSet(h_r=np.array([[0.4 - 0.2j]]), h_v=np.array([1.5 + 0j]),
                    h_d=np.array([0.3 + 0.7j]))
    form = build_quadratic_form(ch)
    kappa, tau = element_local_terms(form, np.array([1.0 + 0.0j]), 0)
    assert kappa == pytest.approx(complex(form.b[0]), rel=1e-15)
    assert tau == pytest.approx(float(form.a[0, 0].real) + form.c, rel=1e-15)


def test_local_terms_decoupled_objective():
    # diagonal A with b = 0: every cross term vanishes
    form = QuadraticForm(a=np.diag([1.0, 2.0, 3.0]).astype(complex),
                         b=np.zeros(3, dtype=complex), c=0.5)
    v = np.exp(1j * np.array([0.1, 2.0, 4.0]))
    for n in range(3):
        kappa, _ = element_local_terms(form, v, n)
        assert kappa == 0.0


def test_local_terms_index_bounds():
    form = build_quadratic_form(
        ChannelSet(h_r=np.ones((1, 2)), h_v=np.ones(2), h_d=np.ones(1)))
    with pytest.raises(IndexError):
        element_local_terms(form, np.ones(2, dtype=complex), 2)


def test_snr_mrc_identity():
    # the closed form must equal an explicit matched combiner
    rng = np.random.default_rng(17)
    for _ in range(10):
        ch = random_channels(rng, 4, 8)
        cfg = PhaseConfig(indices=rng.integers(0, 4, size=8), levels=4)
        h_eff = effective_channel(ch, cfg)
        w = h_eff  # MRC weights, scale-invariant
        explicit = (0.2 * abs(np.vdot(w, h_eff)) ** 2
                    / (1e-9 * float(np.vdot(w, w).real)))
        assert snr(ch, cfg, 0.2, 1e-9) == pytest.approx(explicit, rel=1e-10)


def test_snr_rate_reference_points():
    # engineered so that P * ||h_eff||^2 / N0 = 1 and 3
    ch = ChannelSet(h_r=np.zeros((1, 1)), h_v=np.zeros(1), h_d=np.ones(1))
    cfg = PhaseConfig(indices=np.array([0]), levels=2)
    assert snr(ch, cfg, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert rate(ch, cfg, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert rate(ch, cfg, 3.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert snr(ch, cfg, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_snr_zero_channel():
    ch = ChannelSet(h_r=np.zeros((2, 3)), h_v=np.zeros(3), h_d=np.zeros(2))
    cfg = PhaseConfig(indices=np.zeros(3, dtype=int), levels=4)
    assert snr(ch, cfg, 1.0, 1.0) == 0.0
    assert rate(ch, cfg, 1.0, 1.0) == 0.0


def test_snr_validates_powers():
    ch = ChannelSet(h_r=np.ones((1, 1)), h_v=np.ones(1), h_d=np.ones(1))
    cfg = PhaseConfig(indices=np.array([0]), levels=2)
    with pytest.raises(ValueError):
        snr(ch, cfg, 0.0, 1.0)
    with pytest.raises(ValueError):
        snr(ch, cfg, 1.0, -1.0)


def test_rate_strictly_increasing_in_power():
    rng = np.random.default_rng(2)
    ch = random_channels(rng, 2, 4)
    cfg = PhaseConfig(indices=rng.integers(0, 4, size=4), levels=4)
    powers = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    rates = [rate(ch, cfg, p, 1e-9) for p in powers]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_refuses_an_snr_beyond_the_float_range():
    from irslink.link import rate_from_gain
    from irslink.optimizer import refine_batch

    ch = ChannelSet(h_r=np.ones((1, 2)), h_v=np.ones(2), h_d=np.ones(1))
    cfg = PhaseConfig(indices=np.array([0, 0]), levels=2)
    assert rate(ch, cfg, 1e300, 1.0) == pytest.approx(math.log2(9e300))
    for evaluate in (lambda: rate(ch, cfg, 1e308, 1e-3),
                     lambda: rate_from_gain(9.0, 1e308, 1e-3),
                     lambda: refine_batch([ch.cascade] * 2, [ch.h_d] * 2, 2,
                                          [1.0, 1e308], [1.0, 1e-3], 1e-6, 100)):
        with pytest.raises(ValueError, match=r"^tx_power 1e\+308 W gives an SNR"):
            evaluate()
