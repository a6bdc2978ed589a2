"""Link-level quantities: effective channel, SNR, rate, quadratic form.

The uplink BS applies maximum-ratio combining, so the post-combining SNR
is P * ||h_d + H_r diag(v) h_v||^2 / N0 with v the unit-modulus
reflection vector. With Phi = H_r diag(h_v) (M x N) the array gain is

    ||h_eff||^2 = ||Phi v + h_d||^2 = v^H A v + 2 Re{v^H b} + ||h_d||^2,

with A = Phi^H Phi (Hermitian PSD, rank <= M) and b = Phi^H h_d. The
phase search in the optimizer module works on Phi and h_d directly and
never forms the N x N matrix A; ``build_quadratic_form`` and the helpers
around it are kept as public API and as the reference the tests check
the search and the direct form against, to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet


@dataclass(frozen=True)
class PhaseConfig:
    """Discrete reflection phases: index k means angle k * 2*pi/levels."""

    indices: np.ndarray
    levels: int

    def __post_init__(self) -> None:
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ValueError(f"levels must be a positive integer, got {self.levels!r}")
        idx = np.asarray(self.indices, dtype=np.int64).copy()
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        if idx.size and (idx.min() < 0 or idx.max() >= self.levels):
            raise ValueError(f"indices must lie in [0, {self.levels})")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def phases(self) -> np.ndarray:
        return self.indices * (2.0 * np.pi / self.levels)


@dataclass(frozen=True)
class QuadraticForm:
    """Array gain as v^H a v + 2 Re{v^H b} + c."""

    a: np.ndarray
    b: np.ndarray
    c: float


def reflection_vector(config: PhaseConfig) -> np.ndarray:
    """Unit-modulus complex reflection coefficients exp(j * theta)."""
    return np.exp(1j * config.indices * (2.0 * np.pi / config.levels))


def effective_channel(channels: ChannelSet, config: PhaseConfig) -> np.ndarray:
    """h_d + H_r diag(v) h_v for the given phase configuration."""
    if config.indices.shape[0] != channels.num_irs_elements:
        raise ValueError(
            f"config has {config.indices.shape[0]} phases for "
            f"{channels.num_irs_elements} elements")
    v = reflection_vector(config)
    return channels.h_d + channels.h_r @ (v * channels.h_v)


def build_quadratic_form(channels: ChannelSet) -> QuadraticForm:
    """(A, b, c) of the array gain; A is N x N, so O(M N^2) time."""
    phi = channels.cascade
    a = phi.conj().T @ phi
    a = 0.5 * (a + a.conj().T)
    b = phi.conj().T @ channels.h_d
    c = float(np.vdot(channels.h_d, channels.h_d).real)
    return QuadraticForm(a=a, b=b, c=c)


def quadratic_gain(form: QuadraticForm, v: np.ndarray) -> float:
    """Evaluate the quadratic form at a reflection vector."""
    return float(np.vdot(v, form.a @ v).real + 2.0 * np.vdot(v, form.b).real + form.c)


def element_local_terms(form: QuadraticForm, v: np.ndarray,
                        n: int) -> tuple[complex, float]:
    """Split the gain around element n: 2 Re{conj(v_n) kappa_n} + tau_n.

    kappa_n collects the cross terms seen by element n, tau_n everything
    independent of its phase. The identity holds for any unit-modulus
    v_n substituted at position n.
    """
    size = v.shape[0]
    if not 0 <= n < size:
        raise IndexError(f"element index {n} out of range for {size} elements")
    kappa = complex(form.a[n, :] @ v - form.a[n, n] * v[n] + form.b[n])
    v_rest = v.copy()
    v_rest[n] = 0.0
    tau = (float(np.vdot(v_rest, form.a @ v_rest).real
                 + 2.0 * np.vdot(v_rest, form.b).real)
           + float(form.a[n, n].real) + form.c)
    return kappa, tau


def snr(channels: ChannelSet, config: PhaseConfig, tx_power: float,
        noise_power: float) -> float:
    """Post-MRC SNR (linear)."""
    if not tx_power > 0:
        raise ValueError(f"tx_power must be positive, got {tx_power!r}")
    if not noise_power > 0:
        raise ValueError(f"noise_power must be positive, got {noise_power!r}")
    h_eff = effective_channel(channels, config)
    return tx_power * float(np.vdot(h_eff, h_eff).real) / noise_power


def rate_from_gain(gain: float, tx_power: float, noise_power: float) -> float:
    """Rate log2(1 + P * gain / N0) in bit/s/Hz at array gain ||h_eff||^2."""
    return math.log2(1.0 + tx_power * gain / noise_power)


def rate(channels: ChannelSet, config: PhaseConfig, tx_power: float,
         noise_power: float) -> float:
    """Achievable uplink rate log2(1 + SNR) in bit/s/Hz."""
    return math.log2(1.0 + snr(channels, config, tx_power, noise_power))
