"""Geometry, steering vectors, path loss and Rician synthesis."""

import math
from dataclasses import replace

import numpy as np
import pytest

from irslink import (
    AnglePair,
    ChannelSet,
    Scenario,
    angles_between,
    device_positions,
    los_channel_matrix,
    path_loss_umi_los,
    rician_channel,
    steering_vector,
    successive_refinement,
    trial_seed,
)
from irslink.channel import BS_ORIENTATION, IRS_ORIENTATION


def test_device_positions_defaults():
    scn = Scenario()
    bs, irs, veh = device_positions(scn)
    assert np.array_equal(irs, [0.0, 0.0, 1.0])
    # BS sits across the road at y = -c_bs, height a_bs
    assert np.array_equal(bs, [20.0, -10.0, 2.0])
    assert np.array_equal(veh, [1.5, 0.0, 1.0])


def test_device_positions_degenerate():
    scn = Scenario(a_irs=0.0, a_bs=0.0, a_v=0.0, b_bs=0.0, c_bs=0.0, b_v=0.0)
    bs, irs, veh = device_positions(scn)
    assert np.array_equal(bs, np.zeros(3))
    assert np.array_equal(irs, np.zeros(3))
    assert np.array_equal(veh, np.zeros(3))


def test_angles_boresight_is_zero():
    # IRS boresight is +x
    ang = angles_between([0.0, 0.0, 1.0], [5.0, 0.0, 1.0], IRS_ORIENTATION)
    assert ang.azimuth == 0.0
    assert ang.elevation == 0.0


def test_angles_zenith():
    ang = angles_between([0.0, 0.0, 0.0], [0.0, 0.0, 3.0], IRS_ORIENTATION)
    assert ang.elevation == pytest.approx(math.pi / 2, abs=1e-15)


def test_angles_irs_to_vehicle_default_geometry():
    scn = Scenario()
    _, irs, veh = device_positions(scn)
    ang = angles_between(irs, veh, IRS_ORIENTATION)
    # vehicle at (1.5, 0, 1) is exactly on the IRS boresight
    assert ang.azimuth == 0.0
    assert ang.elevation == 0.0


def test_angles_bs_to_vehicle_hand_trig():
    # delta = veh - bs = (-18.5, 10, -1); in the BS frame the boresight
    # is +y and the column axis -x, so local = (10, 18.5, -1).
    scn = Scenario()
    bs, _, veh = device_positions(scn)
    ang = angles_between(bs, veh, BS_ORIENTATION)
    assert ang.azimuth == pytest.approx(math.atan2(18.5, 10.0), abs=1e-15)
    assert ang.elevation == pytest.approx(-0.04751591124199981, abs=1e-12)


def test_angles_azimuth_half_open_interval():
    # A target exactly behind the panel must report +pi, never -pi.
    ang = angles_between([0.0, 0.0, 0.0], [-1.0, -0.0, 0.0], IRS_ORIENTATION)
    assert ang.azimuth == math.pi


def test_angles_coincident_raises():
    with pytest.raises(ValueError):
        angles_between([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], IRS_ORIENTATION)


def test_anglepair_fields():
    ang = AnglePair(0.3, -0.2)
    assert ang.azimuth == 0.3
    assert ang.elevation == -0.2
    assert tuple(ang) == (0.3, -0.2)


def test_steering_broadside_all_ones():
    a = steering_vector(4, 3, 0.006, 0.012, AnglePair(0.0, 0.0))
    assert np.array_equal(a, np.ones(12, dtype=complex))


def test_steering_single_element():
    a = steering_vector(1, 1, 0.01, 0.02, AnglePair(0.7, -0.3))
    assert np.array_equal(a, np.ones(1, dtype=complex))


def test_steering_two_by_one_endfire():
    # endfire along the row axis: elevation pi/2, half-wave spacing
    lam = 0.0124
    a = steering_vector(2, 1, lam / 2, lam, AnglePair(0.0, math.pi / 2))
    assert a[0] == 1.0 + 0.0j
    assert a[1] == pytest.approx(np.exp(1j * math.pi), abs=1e-15)


def test_steering_row_major_layout():
    # element (p, q) of a rows x cols panel is flat index p*cols + q;
    # with u = 0 the phase advances with q only
    lam = 0.01
    a = steering_vector(2, 3, lam / 2, lam, AnglePair(math.pi / 6, 0.0))
    step = np.exp(1j * math.pi * math.sin(math.pi / 6))
    expect = np.array([1, step, step ** 2, 1, step, step ** 2])
    assert np.allclose(a, expect, rtol=0, atol=1e-14)


def test_steering_unit_modulus_and_norm():
    rng = np.random.default_rng(42)
    for _ in range(10):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        ang = AnglePair(rng.uniform(-math.pi, math.pi),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        a = steering_vector(rows, cols, 0.0062, 0.0124, ang)
        assert a.shape == (rows * cols,)
        assert np.allclose(np.abs(a), 1.0, rtol=0, atol=1e-14)
        assert np.vdot(a, a).real == pytest.approx(rows * cols, rel=1e-14)


def test_steering_invalid_args():
    with pytest.raises(ValueError):
        steering_vector(0, 2, 0.01, 0.02, AnglePair(0, 0))
    with pytest.raises(ValueError):
        steering_vector(2, 2, -0.01, 0.02, AnglePair(0, 0))
    with pytest.raises(ValueError):
        steering_vector(2, 2, 0.01, 0.0, AnglePair(0, 0))


def test_path_loss_reference_value():
    # independent evaluation of the street-canyon LOS formula
    pl_db = 32.4 + 21.0 * math.log10(10.0) + 20.0 * math.log10(24.2)
    assert path_loss_umi_los(10.0, 24.2e9) == pytest.approx(
        10.0 ** (-pl_db / 10.0), rel=1e-14)
    assert path_loss_umi_los(10.0, 24.2e9) == pytest.approx(
        7.8049345948855192e-09, rel=1e-12)


def test_path_loss_monotone_in_distance():
    assert path_loss_umi_los(20.0, 24.2e9) < path_loss_umi_los(10.0, 24.2e9)


def test_path_loss_clamped_below_one_meter():
    assert path_loss_umi_los(0.3, 24.2e9) == path_loss_umi_los(1.0, 24.2e9)


def test_path_loss_frequency_scaling():
    # the 20 log10(f) term: quadrupling f costs 20 log10(4) dB, i.e. 16x
    lo = path_loss_umi_los(15.0, 6.0e9)
    hi = path_loss_umi_los(15.0, 24.0e9)
    assert hi * 16.0 == pytest.approx(lo, rel=1e-12)


def test_path_loss_invalid():
    with pytest.raises(ValueError):
        path_loss_umi_los(0.0, 24.2e9)
    with pytest.raises(ValueError):
        path_loss_umi_los(-2.0, 24.2e9)
    with pytest.raises(ValueError):
        path_loss_umi_los(10.0, 0.0)


def test_scenario_derived_quantities():
    scn = Scenario()
    assert scn.bs_antennas == 8
    assert scn.irs_elements == 256
    assert scn.wavelength == pytest.approx(299792458.0 / 24.2e9, rel=1e-15)
    assert scn.spacing == pytest.approx(scn.wavelength / 2, rel=1e-15)
    # kTB * noise figure at the 290 K reference
    assert scn.n0 == pytest.approx(2.0066945934687532e-12, rel=1e-12)
    explicit = replace(scn, noise_power=1e-11, element_spacing=0.004)
    assert explicit.n0 == 1e-11
    assert explicit.spacing == 0.004


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(bs_rows=0)
    with pytest.raises(ValueError):
        Scenario(f_c=-1.0)
    with pytest.raises(ValueError):
        Scenario(beta_r=-0.5)
    with pytest.raises(ValueError):
        Scenario(beta_v=float("nan"))
    with pytest.raises(ValueError):
        Scenario(noise_power=0.0)
    with pytest.raises(ValueError):
        Scenario(c_v=float("inf"))


def test_scenario_link_budget_must_be_finite():
    # each message starts with the key, which the config front end locates
    for key in ("tx_power", "noise_power", "bandwidth", "noise_figure_db"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{key} must be "):
                Scenario(**{key: bad})
    # the existing positive-value messages are kept for nan and non-positive
    with pytest.raises(ValueError, match="^tx_power must be positive, got nan"):
        Scenario(tx_power=math.nan)
    with pytest.raises(ValueError, match="^tx_power must be finite, got inf"):
        Scenario(tx_power=math.inf)
    # k*T*B*F overflows (10 ** 400) or rounds to zero: no silent inf or 0 noise
    with pytest.raises(ValueError, match="^noise_figure_db gives a noise power"):
        Scenario(noise_figure_db=4000.0)
    with pytest.raises(ValueError, match="^noise_figure_db gives a noise power "
                                         "k\\*T\\*B\\*F of inf W"):
        Scenario(bandwidth=1e300, noise_figure_db=3000.0)
    with pytest.raises(ValueError, match="^bandwidth gives a noise power "
                                         "k\\*T\\*B\\*F of 0.0 W"):
        Scenario(bandwidth=1e-310)
    # the carrier sets the path-loss gain, 10 ** 634 W/W at 1 m for 1e-310 Hz
    with pytest.raises(ValueError, match="^f_c must be finite, got inf"):
        Scenario(f_c=math.inf)
    with pytest.raises(ValueError, match="^f_c 1e-310 Hz gives a path-loss gain"):
        Scenario(f_c=1e-310)
    # an explicit noise power replaces k*T*B*F, so a huge noise figure is unused
    assert Scenario(noise_power=1e-12, noise_figure_db=4000.0).n0 == 1e-12
    assert Scenario(noise_figure_db=3000.0).n0 < math.inf


def test_channelset_validation():
    ok = ChannelSet(h_r=np.ones((2, 3)), h_v=np.ones(3), h_d=np.ones(2))
    assert ok.num_bs_antennas == 2
    assert ok.num_irs_elements == 3
    assert ok.h_r.dtype == np.complex128
    with pytest.raises(ValueError):
        ChannelSet(h_r=np.ones(3), h_v=np.ones(3), h_d=np.ones(1))
    with pytest.raises(ValueError):
        ChannelSet(h_r=np.ones((2, 3)), h_v=np.ones(4), h_d=np.ones(2))
    with pytest.raises(ValueError):
        ChannelSet(h_r=np.ones((2, 3)), h_v=np.ones(3), h_d=np.ones(3))
    bad = np.ones((2, 3), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelSet(h_r=bad, h_v=np.ones(3), h_d=np.ones(2))


def test_channelset_stores_c_ordered_arrays():
    # the search's sums depend on the layout of Phi in the last bit, so a
    # Fortran-ordered or transposed h_r must give the C-ordered input's bits
    scn = Scenario()
    for t in range(25):
        ch = rician_channel(scn, np.random.default_rng(trial_seed(2024, t)))
        assert all(a.flags.c_contiguous for a in (ch.h_r, ch.h_v, ch.h_d))
        fortran = np.asfortranarray(ch.h_r)
        transposed = np.ascontiguousarray(ch.h_r.T).T
        assert not fortran.flags.c_contiguous
        assert not transposed.flags.c_contiguous
        plain = successive_refinement(ch, 4, scn.tx_power, scn.n0)
        for h_r in (fortran, transposed):
            other = ChannelSet(h_r=h_r, h_v=ch.h_v, h_d=ch.h_d)
            assert other.h_r.flags.c_contiguous
            assert other.h_r.tobytes() == ch.h_r.tobytes()
            report = successive_refinement(other, 4, scn.tx_power, scn.n0)
            assert np.array_equal(report.final_phases.indices,
                                  plain.final_phases.indices)
            assert report.rate_trace == plain.rate_trace
    # a 0-d h_v is still refused, not silently made 1-D
    with pytest.raises(ValueError, match="must be 1-D"):
        ChannelSet(h_r=np.ones((1, 1)), h_v=np.complex128(1), h_d=np.ones(1))


def test_los_matrix_rank_one():
    scn = Scenario(irs_rows=4, irs_cols=4)
    ch = los_channel_matrix(scn)
    s = np.linalg.svd(ch.h_r, compute_uv=False)
    bs, irs, _ = device_positions(scn)
    loss = path_loss_umi_los(float(np.linalg.norm(bs - irs)), scn.f_c)
    m, n = ch.h_r.shape
    assert s[0] == pytest.approx(math.sqrt(loss * m * n), rel=1e-12)
    assert np.all(s[1:] < 1e-16 * s[0] * max(m, n))


def test_los_scalar_link():
    scn = Scenario(bs_rows=1, bs_cols=1, irs_rows=1, irs_cols=1)
    ch = los_channel_matrix(scn)
    bs, irs, _ = device_positions(scn)
    d = float(np.linalg.norm(bs - irs))
    loss = path_loss_umi_los(d, scn.f_c)
    expect = math.sqrt(loss) * np.exp(-2j * math.pi * d / scn.wavelength)
    assert ch.h_r[0, 0] == pytest.approx(expect, rel=1e-12)


def test_los_global_phase_wraps():
    # pick the carrier so the BS-IRS distance is a whole number of
    # wavelengths; the scalar link then has phase 0 modulo 2 pi
    scn0 = Scenario(bs_rows=1, bs_cols=1, irs_rows=1, irs_cols=1)
    bs, irs, _ = device_positions(scn0)
    d = float(np.linalg.norm(bs - irs))
    scn = replace(scn0, f_c=299792458.0 * 400 / d)
    ch = los_channel_matrix(scn)
    assert abs(np.angle(ch.h_r[0, 0])) < 1e-6


def test_los_power_budget():
    # every entry of every link carries exactly the link's path loss
    scn = Scenario()
    ch = los_channel_matrix(scn)
    bs, irs, veh = device_positions(scn)
    for h, a, b in ((ch.h_r, bs, irs), (ch.h_v, irs, veh), (ch.h_d, bs, veh)):
        loss = path_loss_umi_los(float(np.linalg.norm(a - b)), scn.f_c)
        assert np.allclose(np.abs(h) ** 2, loss, rtol=1e-12, atol=0)


def test_los_consumes_no_randomness():
    scn = Scenario()
    a = los_channel_matrix(scn)
    b = los_channel_matrix(scn)
    assert np.array_equal(a.h_r, b.h_r)
    assert np.array_equal(a.h_v, b.h_v)
    assert np.array_equal(a.h_d, b.h_d)


def test_rician_seed_determinism():
    scn = Scenario(irs_rows=4, irs_cols=4)
    a = rician_channel(scn, np.random.default_rng(7))
    b = rician_channel(scn, np.random.default_rng(7))
    assert np.array_equal(a.h_r, b.h_r)
    assert np.array_equal(a.h_v, b.h_v)
    assert np.array_equal(a.h_d, b.h_d)
    c = rician_channel(scn, np.random.default_rng(8))
    assert not np.array_equal(a.h_r, c.h_r)


def test_rician_infinite_beta_matches_los():
    scn = Scenario(beta_r=math.inf, beta_v=math.inf, beta_d=math.inf)
    los = los_channel_matrix(scn)
    drawn = rician_channel(scn, np.random.default_rng(0))
    assert np.array_equal(drawn.h_r, los.h_r)
    assert np.array_equal(drawn.h_v, los.h_v)
    assert np.array_equal(drawn.h_d, los.h_d)


def test_rician_direct_link_seed_invariant_when_deterministic():
    # beta_d = inf by default: the direct link is pure LOS and must not
    # depend on the draw, while the fading links do
    scn = Scenario(irs_rows=2, irs_cols=2)
    a = rician_channel(scn, np.random.default_rng(1))
    b = rician_channel(scn, np.random.default_rng(2))
    assert np.array_equal(a.h_d, b.h_d)
    assert not np.array_equal(a.h_r, b.h_r)
    assert not np.array_equal(a.h_v, b.h_v)


def test_rician_mixing_formula_and_draw_order():
    # reconstruct h_v by hand: with beta_r = inf the h_r link consumes
    # no randomness, so the vehicle-IRS link sees the generator first
    scn = Scenario(irs_rows=4, irs_cols=4, beta_r=math.inf, beta_v=1.5,
                   beta_d=math.inf)
    seed = 123
    drawn = rician_channel(scn, np.random.default_rng(seed))
    los = los_channel_matrix(scn)
    _, irs, veh = device_positions(scn)
    loss_v = path_loss_umi_los(float(np.linalg.norm(irs - veh)), scn.f_c)
    unit_hv = los.h_v / math.sqrt(loss_v)

    rng = np.random.default_rng(seed)
    n = scn.irs_elements
    nlos = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    beta = 1.5
    expect = math.sqrt(loss_v) * (math.sqrt(beta / (1 + beta)) * unit_hv
                                  + math.sqrt(1 / (1 + beta)) * nlos)
    assert np.allclose(drawn.h_v, expect, rtol=1e-12, atol=0)


def test_rician_rayleigh_limit_power():
    # beta = 0 is pure NLOS; per-entry second moment equals the path loss
    scn = Scenario(irs_rows=8, irs_cols=8, beta_v=0.0)
    rng = np.random.default_rng(99)
    samples = np.concatenate([rician_channel(scn, rng).h_v for _ in range(60)])
    _, irs, veh = device_positions(scn)
    loss = path_loss_umi_los(float(np.linalg.norm(irs - veh)), scn.f_c)
    power = np.abs(samples) ** 2
    err = power.std(ddof=1) / math.sqrt(power.size)
    assert abs(power.mean() - loss) < 5 * err


def test_scenario_refuses_geometry_beyond_the_float_range():
    # distances and phases that overflow are refused at the key, not as
    # non-finite channel entries in the draw
    for changes, match in (
            ({"c_v": 1e200}, r"^c_v 1e\+200 m puts the vehicle-IRS distance"),
            ({"b_bs": -1e300}, r"^b_bs -1e\+300 m puts the IRS-BS distance"),
            ({"element_spacing": 1e308}, r"^element_spacing 1e\+308 gives steering"),
            ({"f_c": 1e300, "c_v": 1e150}, r"^f_c 1e\+300 Hz gives the vehicle-IRS")):
        with pytest.raises(ValueError, match=match):
            Scenario(irs_rows=4, irs_cols=4, **changes)
    far = Scenario(irs_rows=4, irs_cols=4, c_v=1e150)
    assert np.all(np.isfinite(rician_channel(far, np.random.default_rng(0)).h_v))
