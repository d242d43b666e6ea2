"""Spectral inversion of a covariance grid into a nonparametric kernel
estimate.

The covariance samples are symmetrized, Fourier transformed, and divided by
the mean rate to give the squared modulus of the renewal spectrum
``|1 + psi|^2``.  Because the bandwidth equals the grid step, the triangular
window spectra at the aliased frequencies sum to exactly ``delta``, so the
window division reduces to the constant ``delta`` and cancels against the
DFT scaling.  The causal (minimal-phase) kernel spectrum is then recovered from
the half-log of the clamped modulus and its Hilbert transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceGrid

__all__ = [
    "KernelEstimate",
    "DegenerateSpectrumError",
    "hilbert_transform",
    "invert_to_kernel",
]


class DegenerateSpectrumError(ValueError):
    """Empirical spectrum carries no usable signal above the clamp floor."""


@dataclass(frozen=True)
class KernelEstimate:
    """Nonparametric kernel samples on the covariance grid geometry."""

    values: np.ndarray
    delta: float
    tau_max: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel estimate contains NaN/Inf")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.delta


def hilbert_transform(samples: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform via the frequency-domain signum multiplier.

    With this convention ``H(cos) = sin``; DC and Nyquist components are
    annihilated, so ``H(H(x)) = -x`` on the remaining components.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    X = np.fft.fft(x)
    mult = np.zeros(n, dtype=complex)
    half = (n + 1) // 2
    mult[1:half] = -1j
    if n % 2 == 0:
        mult[half + 1 :] = 1j  # leave the Nyquist bin at n//2 zeroed
    else:
        mult[half:] = 1j
    return np.fft.ifft(X * mult).real


# the spectrum is clamped below at this share of its peak before the log
_FLOOR_RATIO = 1e-8


def _next_fft_size(n: int) -> int:
    size = 1
    while size < 4 * n:
        size <<= 1
    return size


def invert_to_kernel(grid: CovarianceGrid) -> KernelEstimate:
    """Recover the discretized triggering kernel from a covariance grid.

    Steps: symmetrize the covariance samples and take their FFT (zero-padded
    to at least 4x the grid length to limit circular leakage); divide by the
    mean rate to obtain ``|1 + psi|^2``; clamp the spectrum below at
    ``_FLOOR_RATIO`` times its maximum; rebuild the minimal-phase spectrum
    from the half-log and its Hilbert transform; inverse-transform and keep
    the real part on ``[0, tau_max]``.
    """
    v = np.asarray(grid.values, dtype=float)
    n = v.size
    if n == 0:
        raise ValueError("empty covariance grid")
    if grid.lambda_hat <= 0:
        raise ValueError("lambda_hat must be positive")

    size = _next_fft_size(n)
    full = np.zeros(size, dtype=float)
    full[0] = v[0]
    full[1:n] = v[1:]
    full[size - n + 1 :] = v[1:][::-1]

    # the bandwidth is delta: the aliased triangular-window spectrum is the
    # constant delta, which cancels the DFT step factor, leaving spectrum / lambda_hat.
    spectrum = np.fft.fft(full).real / grid.lambda_hat
    peak = spectrum.max()
    if peak <= 0 or peak == np.inf:
        raise DegenerateSpectrumError(f"covariance spectrum peak is {peak}, not positive and finite")
    logmag = 0.5 * np.log(np.maximum(spectrum, _FLOOR_RATIO * peak))
    phase = hilbert_transform(logmag)
    phi_spectrum = 1.0 - np.exp(-logmag + 1j * phase)
    phi = np.fft.ifft(phi_spectrum).real / grid.delta
    return KernelEstimate(values=phi[:n].copy(), delta=grid.delta, tau_max=grid.tau_max)
