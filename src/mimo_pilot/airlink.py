"""Fast fading, pilot-phase signals and empirical SINR statistics.

Everything here is expressed at the target base station: channel vectors
h[l, k] are the links from user k of cell l to the target array, drawn as
circularly-symmetric complex Gaussians scaled by the large-scale gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian draws.

    Each component is built from two real normals scaled by 1/sqrt(2), so
    E|x|^2 = 1 exactly.  ``shape`` may be an int.  One draw of shape
    (2, *shape) fills the real parts, then the imaginary parts.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    parts = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=complex)
    # multiplying by 1/sqrt(2) is what dividing a complex by sqrt(2) does
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """One small-scale realization h[l, k] (length-M vectors) at the target BS."""

    h: np.ndarray  # (L, K, M) complex


def sample_channels(beta, M: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw h[l, k] ~ CN(0, beta[l, k] * I_M) for every user.

    ``beta`` is the (L, K) array of gains toward the target base station.
    """
    gains = np.asarray(beta, dtype=float)
    if gains.ndim != 2:
        raise ValueError("expected an (L, K) gain slice")
    if M < 1:
        raise ValueError("M must be at least 1")
    L, K = gains.shape
    h = complex_normal((L, K, M), rng)
    # (g + 0i)(x + iy) rounds to gx + i gy, so the real gain scales the
    # float view (re, im interleaved) in place
    h_f = h.view(float)
    h_f *= np.sqrt(gains)[:, :, None]
    return ChannelRealization(h=h)


def pilot_book(K: int, tau: int) -> np.ndarray:
    """Rows of the tau x tau identity as the shared orthonormal pilot book.

    Every cell transmits the same K sequences, which is what couples
    same-index users across cells during estimation.
    """
    if tau < K:
        raise ValueError("tau must be at least K")
    return np.eye(tau, dtype=complex)[:K]


@dataclass(frozen=True)
class PilotObservation:
    """Received pilot block at the target BS plus what produced it."""

    y: np.ndarray       # (M, tau) complex
    rho: np.ndarray     # (L, K) pilot powers, target cell is row 0
    book: np.ndarray    # (K, tau) orthonormal sequences


def pilot_phase(ch: ChannelRealization, rho, tau: int,
                noise_rng: np.random.Generator | None) -> PilotObservation:
    """Superimpose every cell's pilot transmissions at the target array.

    Y = sum_{l,k} sqrt(rho[l,k]) h[l,k] s_k^H + N with N i.i.d. CN(0, 1);
    pass ``noise_rng=None`` for a noiseless block.  All cells share the
    same sequence book, so contributions of same-index users add up.
    """
    rho = np.asarray(rho, dtype=float)
    L, K, M = ch.h.shape
    if rho.shape != (L, K):
        raise ValueError(f"rho must have shape ({L}, {K})")
    if np.any(rho < 0):
        raise ValueError("pilot powers must be non-negative")
    book = pilot_book(K, tau)
    # combined per-sequence signal: b_k = sum_l sqrt(rho[l,k]) h[l,k]
    b = np.einsum("lk,lkm->km", np.sqrt(rho), ch.h)
    y = b.T @ np.conj(book)
    if noise_rng is not None:
        y = y + complex_normal((M, tau), noise_rng)
    return PilotObservation(y=y, rho=rho, book=book)


@dataclass(frozen=True)
class SinrMoments:
    """Monte-Carlo moments of the matched-filter receiver for one user.

    ``signal_gain`` is |E{hhat^H h}|^2 for the user's own channel,
    ``cross_energy[l, n]`` is E{|hhat^H h[l, n]|^2} against every user in
    the system, and ``filter_energy`` is E{||hhat||^2}.
    """

    signal_gain: float
    cross_energy: np.ndarray  # (L, K)
    filter_energy: float
    rho_u: float

    @property
    def sinr(self) -> float:
        """Assemble the moments into the matched-filter uplink SINR."""
        interference = self.rho_u * (self.cross_energy.sum() - self.signal_gain)
        return self.rho_u * self.signal_gain / (interference + self.filter_energy)


def empirical_sinr_terms(channels, estimates, rho_u: float, k: int) -> SinrMoments:
    """Estimate the receiver moments from paired channel/estimate ensembles.

    ``channels`` (n, L, K, M) and ``estimates`` (n, K, M) are stacked
    samples drawn under a single configuration, with the same estimator
    applied throughout.  At least two samples are required for the
    averages to be meaningful.
    """
    h = np.asarray(channels)
    h_hat = np.asarray(estimates)
    n = h.shape[0]
    if n != h_hat.shape[0]:
        raise ValueError("channel and estimate ensembles must pair up")
    if n < 2:
        raise ValueError("need at least 2 realizations to form moments")
    if rho_u <= 0:
        raise ValueError("rho_u must be positive")
    hhat = h_hat[:, k]
    inner = np.einsum("nm,nlkm->nlk", np.conj(hhat), h)
    # every sum over trials runs in trial order (cumsum), as a running total
    # over the ensemble would
    inner_own = np.cumsum(inner[:, 0, k])[-1]
    cross = np.cumsum(np.abs(inner) ** 2, axis=0)[-1]
    energy = np.cumsum(np.matmul(np.conj(hhat)[:, None, :], hhat[:, :, None]).real)[-1]
    return SinrMoments(
        signal_gain=float(np.abs(inner_own / n) ** 2),
        cross_energy=cross / n,
        filter_energy=float(energy) / n,
        rho_u=float(rho_u),
    )
