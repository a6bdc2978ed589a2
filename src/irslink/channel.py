"""Channel synthesis for an IRS-assisted mmWave vehicular uplink.

Geometry conventions (used everywhere in this package):

* The global frame has its origin at the foot of the IRS. The IRS panel
  lies in the YZ plane with its boresight along +x, mounted at height
  ``a_irs``. The road runs parallel to the y axis.
* The BS panel is parallel to the XZ plane with boresight along +y,
  placed at ``(b_bs, -c_bs, a_bs)``.
* The single-antenna vehicle sits at ``(b_v, c_v, a_v)``.
* Planar arrays are indexed row-major: element ``(p, q)`` of an
  ``rows x cols`` panel maps to flat index ``p * cols + q``. Rows run
  along the local vertical (z) axis, columns along the local horizontal
  axis. The element at ``(0, 0)`` is the phase reference.
* Azimuth is measured in the local horizontal plane from boresight,
  elevation from the local horizontal plane toward local z. A target on
  boresight has angles (0, 0); a target straight above the panel has
  elevation pi/2.

Local basis vectors (boresight, column axis, row axis) expressed in the
global frame:

* IRS: (+x, +y, +z), i.e. the identity.
* BS: (+y, -x, +z), a right-handed frame looking back toward the road.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Thermal noise floor: k_B * T_ref with the conventional 290 K reference.
BOLTZMANN = 1.380649e-23
NOISE_REF_TEMP_K = 290.0

IRS_ORIENTATION = np.eye(3)
BS_ORIENTATION = np.array([[0.0, 1.0, 0.0],
                           [-1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0]])
IRS_ORIENTATION.setflags(write=False)
BS_ORIENTATION.setflags(write=False)


@dataclass(frozen=True)
class Scenario:
    """Deployment geometry, carrier, fading and link-budget parameters.

    Defaults describe an urban street-canyon V2I drop: a 4x2 BS panel, a
    16x16 reflecting surface at 1 m, a vehicle antenna at 1 m passing
    1.5 m in front of the surface, carrier 24.2 GHz. Rician factors are
    per link: ``beta_r`` (IRS to BS), ``beta_v`` (vehicle to IRS),
    ``beta_d`` (vehicle to BS). ``math.inf`` means a pure LOS link with
    no fading drawn at all.
    """

    bs_rows: int = 4
    bs_cols: int = 2
    irs_rows: int = 16
    irs_cols: int = 16
    a_irs: float = 1.0
    a_bs: float = 2.0
    a_v: float = 1.0
    b_bs: float = 20.0
    c_bs: float = 10.0
    b_v: float = 1.5
    c_v: float = 0.0
    f_c: float = 24.2e9
    element_spacing: float | None = None
    beta_r: float = 2.0
    beta_v: float = 1.0
    beta_d: float = math.inf
    tx_power: float = 0.1
    noise_power: float | None = None
    bandwidth: float = 100e6
    noise_figure_db: float = 7.0

    def __post_init__(self) -> None:
        for key in ("bs_rows", "bs_cols", "irs_rows", "irs_cols"):
            val = getattr(self, key)
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"{key} must be a positive integer, got {val!r}")
        for key in ("f_c", "tx_power", "bandwidth"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
        if self.element_spacing is not None and not self.element_spacing > 0:
            raise ValueError(f"element_spacing must be positive, got {self.element_spacing!r}")
        if self.noise_power is not None and not self.noise_power > 0:
            raise ValueError(f"noise_power must be positive, got {self.noise_power!r}")
        if self.noise_figure_db < 0:
            raise ValueError(f"noise_figure_db must be non-negative, got {self.noise_figure_db!r}")
        for key in ("beta_r", "beta_v", "beta_d"):
            beta = getattr(self, key)
            if math.isnan(beta) or beta < 0:
                raise ValueError(f"{key} must be >= 0 or inf, got {beta!r}")
        for key in ("a_irs", "a_bs", "a_v", "b_bs", "c_bs", "b_v", "c_v"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")

    @property
    def bs_antennas(self) -> int:
        return self.bs_rows * self.bs_cols

    @property
    def irs_elements(self) -> int:
        return self.irs_rows * self.irs_cols

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    @property
    def spacing(self) -> float:
        """Element spacing in meters, half a wavelength unless overridden."""
        if self.element_spacing is not None:
            return self.element_spacing
        return 0.5 * self.wavelength

    @property
    def n0(self) -> float:
        """Noise power in watts: k*T*B*F unless set explicitly."""
        if self.noise_power is not None:
            return self.noise_power
        return (BOLTZMANN * NOISE_REF_TEMP_K * self.bandwidth
                * 10.0 ** (self.noise_figure_db / 10.0))


class AnglePair(tuple):
    """(azimuth, elevation) pair in radians."""

    __slots__ = ()

    def __new__(cls, azimuth: float, elevation: float):
        return super().__new__(cls, (float(azimuth), float(elevation)))

    @property
    def azimuth(self) -> float:
        return self[0]

    @property
    def elevation(self) -> float:
        return self[1]


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the three uplink channels.

    ``h_r``: IRS to BS matrix, shape (M, N). ``h_v``: vehicle to IRS,
    shape (N,). ``h_d``: vehicle to BS, shape (M,).
    """

    h_r: np.ndarray
    h_v: np.ndarray
    h_d: np.ndarray

    def __post_init__(self) -> None:
        h_r = np.asarray(self.h_r, dtype=np.complex128)
        h_v = np.asarray(self.h_v, dtype=np.complex128)
        h_d = np.asarray(self.h_d, dtype=np.complex128)
        if h_r.ndim != 2:
            raise ValueError(f"h_r must be 2-D, got shape {h_r.shape}")
        if h_v.ndim != 1 or h_d.ndim != 1:
            raise ValueError("h_v and h_d must be 1-D")
        m, n = h_r.shape
        if h_v.shape != (n,):
            raise ValueError(f"h_v has {h_v.shape[0]} entries, expected {n}")
        if h_d.shape != (m,):
            raise ValueError(f"h_d has {h_d.shape[0]} entries, expected {m}")
        for name, arr in (("h_r", h_r), ("h_v", h_v), ("h_d", h_d)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_v", h_v)
        object.__setattr__(self, "h_d", h_d)

    @property
    def num_bs_antennas(self) -> int:
        return self.h_r.shape[0]

    @property
    def num_irs_elements(self) -> int:
        return self.h_r.shape[1]

    @property
    def cascade(self) -> np.ndarray:
        """Phi = H_r diag(h_v), shape (M, N); column n is element n's
        cascaded channel."""
        return self.h_r * self.h_v[np.newaxis, :]


def device_positions(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global xyz of (bs, irs, vehicle) under the module's conventions."""
    bs = np.array([scenario.b_bs, -scenario.c_bs, scenario.a_bs])
    irs = np.array([0.0, 0.0, scenario.a_irs])
    veh = np.array([scenario.b_v, scenario.c_v, scenario.a_v])
    return bs, irs, veh


def angles_between(from_xyz: np.ndarray, to_xyz: np.ndarray,
                   orientation: np.ndarray) -> AnglePair:
    """Azimuth/elevation of ``to_xyz`` seen from ``from_xyz``.

    ``orientation`` is a 3x3 matrix whose rows are the observing panel's
    (boresight, column axis, row axis) in global coordinates.
    """
    delta = np.asarray(to_xyz, dtype=float) - np.asarray(from_xyz, dtype=float)
    dist = float(np.linalg.norm(delta))
    if dist == 0.0:
        raise ValueError("coincident endpoints have no direction")
    local = np.asarray(orientation, dtype=float) @ (delta / dist)
    azimuth = math.atan2(local[1], local[0])
    if azimuth == -math.pi:
        azimuth = math.pi
    elevation = math.asin(min(1.0, max(-1.0, local[2])))
    return AnglePair(azimuth, elevation)


def steering_vector(rows: int, cols: int, spacing: float, wavelength: float,
                    angles: AnglePair) -> np.ndarray:
    """Planar-array response, flat row-major, unit-modulus entries.

    Element (p, q) carries phase 2*pi/wavelength * spacing * (p*u + q*w)
    with direction cosines u = sin(el) along rows and
    w = cos(el)*sin(az) along columns. ||a||^2 = rows*cols.
    """
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be positive")
    if spacing <= 0 or wavelength <= 0:
        raise ValueError("spacing and wavelength must be positive")
    u = math.sin(angles.elevation)
    w = math.cos(angles.elevation) * math.sin(angles.azimuth)
    idx = np.arange(rows * cols)
    p = idx // cols
    q = idx % cols
    phase = (2.0 * np.pi / wavelength) * spacing * (p * u + q * w)
    return np.exp(1j * phase)


def path_loss_umi_los(distance_m: float, f_c_hz: float) -> float:
    """Linear power gain of the street-canyon LOS model below breakpoint.

    PL_dB = 32.4 + 21 log10(d_3D) + 20 log10(f_GHz); distances shorter
    than 1 m are clamped to 1 m. Returns 10**(-PL_dB/10).
    """
    if not distance_m > 0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    if not f_c_hz > 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c_hz!r}")
    d = max(float(distance_m), 1.0)
    pl_db = 32.4 + 21.0 * math.log10(d) + 20.0 * math.log10(f_c_hz / 1e9)
    return 10.0 ** (-pl_db / 10.0)


def _los_parts(scenario: Scenario):
    """Unit-modulus LOS structure and path loss per link.

    Returns (unit_hr, loss_r, unit_hv, loss_v, unit_hd, loss_d) where the
    unit arrays carry the geometric phases only, so that e.g.
    sqrt(loss_r) * unit_hr is the deterministic LOS channel.
    """
    bs, irs, veh = device_positions(scenario)
    lam = scenario.wavelength
    sp = scenario.spacing

    d_r = float(np.linalg.norm(bs - irs))
    a_bs_irs = steering_vector(scenario.bs_rows, scenario.bs_cols, sp, lam,
                               angles_between(bs, irs, BS_ORIENTATION))
    a_irs_bs = steering_vector(scenario.irs_rows, scenario.irs_cols, sp, lam,
                               angles_between(irs, bs, IRS_ORIENTATION))
    unit_hr = np.exp(-2j * np.pi * d_r / lam) * np.outer(a_bs_irs, a_irs_bs.conj())
    loss_r = path_loss_umi_los(d_r, scenario.f_c)

    d_v = float(np.linalg.norm(irs - veh))
    a_irs_veh = steering_vector(scenario.irs_rows, scenario.irs_cols, sp, lam,
                                angles_between(irs, veh, IRS_ORIENTATION))
    unit_hv = np.exp(-2j * np.pi * d_v / lam) * a_irs_veh
    loss_v = path_loss_umi_los(d_v, scenario.f_c)

    d_d = float(np.linalg.norm(bs - veh))
    a_bs_veh = steering_vector(scenario.bs_rows, scenario.bs_cols, sp, lam,
                               angles_between(bs, veh, BS_ORIENTATION))
    unit_hd = np.exp(-2j * np.pi * d_d / lam) * a_bs_veh
    loss_d = path_loss_umi_los(d_d, scenario.f_c)

    return unit_hr, loss_r, unit_hv, loss_v, unit_hd, loss_d


def los_channel_matrix(scenario: Scenario) -> ChannelSet:
    """Deterministic pure-LOS channels from geometry alone.

    Each link is sqrt(path loss) * exp(-j*2*pi*d/lambda) * steering
    structure; h_r is the rank-one outer product of the BS and IRS
    responses. Consumes no randomness.
    """
    unit_hr, loss_r, unit_hv, loss_v, unit_hd, loss_d = _los_parts(scenario)
    return ChannelSet(h_r=np.sqrt(loss_r) * unit_hr,
                      h_v=np.sqrt(loss_v) * unit_hv,
                      h_d=np.sqrt(loss_d) * unit_hd)


def _rician_mix(unit_los: np.ndarray, loss: float, beta: float,
                rng: np.random.Generator) -> np.ndarray:
    if math.isinf(beta):
        return np.sqrt(loss) * unit_los
    shape = unit_los.shape
    nlos = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    los_w = math.sqrt(beta / (1.0 + beta))
    nlos_w = math.sqrt(1.0 / (1.0 + beta))
    return np.sqrt(loss) * (los_w * unit_los + nlos_w * nlos)


def rician_channel(scenario: Scenario, rng: np.random.Generator) -> ChannelSet:
    """Draw one Rician realization of all three links.

    Per link: sqrt(loss) * (sqrt(beta/(1+beta)) * LOS +
    sqrt(1/(1+beta)) * NLOS) with NLOS entries i.i.d. CN(0, 1). Links
    are drawn in the fixed order h_r, h_v, h_d; an infinite-beta link
    consumes no randomness, so seeding stays reproducible link by link.
    """
    unit_hr, loss_r, unit_hv, loss_v, unit_hd, loss_d = _los_parts(scenario)
    h_r = _rician_mix(unit_hr, loss_r, scenario.beta_r, rng)
    h_v = _rician_mix(unit_hv, loss_v, scenario.beta_v, rng)
    h_d = _rician_mix(unit_hd, loss_d, scenario.beta_d, rng)
    return ChannelSet(h_r=h_r, h_v=h_v, h_d=h_d)
