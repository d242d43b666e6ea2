import math

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesdecomp.covariance import CovarianceGrid
from hawkesdecomp.spectral import (
    DegenerateSpectrumError,
    KernelEstimate,
    hilbert_transform,
    invert_to_kernel,
)


def exp_hawkes_covariance_grid(mu, alpha, beta, delta, tau_max):
    """Analytic covariance grid of an exponential Hawkes process, smoothed
    by the triangular counting window: the stationary covariance density is
    ``Lam*alpha*(2*beta - alpha)/(2*(beta - alpha)) * exp(-(beta-alpha)|tau|)``
    plus an atom of mass ``Lam`` at zero."""
    norm = alpha / beta
    lam = mu / (1.0 - norm)
    decay = beta - alpha
    amp = lam * alpha * (2.0 * beta - alpha) / (2.0 * decay)

    def tri(x):
        return max(0.0, 1.0 - abs(x) / delta)

    n = int(round(tau_max / delta))
    vals = np.empty(n)
    for k in range(n):
        tau = k * delta
        smooth = quad(
            lambda s: tri(tau - s) * amp * math.exp(-decay * abs(s)),
            tau - delta,
            tau + delta,
        )[0]
        vals[k] = lam * tri(tau) + smooth
    return CovarianceGrid(values=vals, delta=delta, tau_max=tau_max, lambda_hat=lam)


class TestHilbert:
    def test_cos_to_sin(self):
        n = 256
        t = 2.0 * math.pi * np.arange(n) / n
        for k in (1, 3, 10):
            assert hilbert_transform(np.cos(k * t)) == pytest.approx(np.sin(k * t), abs=1e-10)

    def test_sin_to_minus_cos(self):
        n = 128
        t = 2.0 * math.pi * np.arange(n) / n
        assert hilbert_transform(np.sin(5 * t)) == pytest.approx(-np.cos(5 * t), abs=1e-10)

    def test_involution_up_to_sign(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(200)
        # remove DC and Nyquist, the annihilated components
        X = np.fft.fft(x)
        X[0] = 0.0
        X[100] = 0.0
        x = np.fft.ifft(X).real
        assert hilbert_transform(hilbert_transform(x)) == pytest.approx(-x, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        assert hilbert_transform(2.0 * x - 3.0 * y) == pytest.approx(
            2.0 * hilbert_transform(x) - 3.0 * hilbert_transform(y), abs=1e-10
        )

    def test_too_short(self):
        with pytest.raises(ValueError):
            hilbert_transform(np.array([1.0]))


class TestInversion:
    def test_poisson_grid_gives_near_zero_kernel(self):
        # pure atom covariance (no smooth part) is the Poisson signature
        delta = 0.1
        lam = 2.0
        vals = np.zeros(100)
        vals[0] = lam  # atom through the triangle window at lag 0
        grid = CovarianceGrid(values=vals, delta=delta, tau_max=10.0, lambda_hat=lam)
        est = invert_to_kernel(grid)
        assert np.max(np.abs(est.values)) < 1e-8

    def test_exponential_round_trip(self):
        # analytic covariance of an EXP(0.5, 1) Hawkes process inverts back
        # to the kernel with small grid-L1 error
        grid = exp_hawkes_covariance_grid(1.0, 0.5, 1.0, delta=0.1, tau_max=10.0)
        est = invert_to_kernel(grid)
        true = 0.5 * np.exp(-est.times)
        l1 = float(np.sum(np.abs(est.values - true)) * est.delta)
        assert l1 < 0.05
        # the recovered branching ratio is close to 0.5
        assert float(np.sum(est.values) * est.delta) == pytest.approx(0.5, abs=0.02)

    def test_geometry_preserved(self):
        grid = exp_hawkes_covariance_grid(1.0, 0.4, 1.0, delta=0.2, tau_max=6.0)
        est = invert_to_kernel(grid)
        assert len(est.values) == len(grid.values)
        assert est.delta == grid.delta
        assert est.tau_max == grid.tau_max
        assert est.times[1] == pytest.approx(0.2)

    def test_degenerate_spectrum_rejected(self):
        # a purely negative atom gives a constant negative spectrum
        vals = np.zeros(16)
        vals[0] = -1.0
        grid = CovarianceGrid(values=vals, delta=0.1, tau_max=1.6, lambda_hat=1.0)
        with pytest.raises(DegenerateSpectrumError):
            invert_to_kernel(grid)

    def test_invalid_lambda(self):
        grid = CovarianceGrid(
            values=np.ones(16), delta=0.1, tau_max=1.6, lambda_hat=0.0
        )
        with pytest.raises(ValueError):
            invert_to_kernel(grid)

    def test_estimate_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            KernelEstimate(values=np.array([1.0, np.nan]), delta=0.1, tau_max=0.2)
