"""The literal antenna model: the tests' reference for the Monte-Carlo kernels.

Pilot transmission, LS and MMSE estimation and the relative errors, one
trial and one array at a time, written as the paper states them.  No
sweep runs this path; ``harness._mc_trials`` must match it bit for bit,
and the acceptance criteria check it against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mimo_pilot.airlink import complex_normal
from mimo_pilot.estimators import LS, MMSE


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


def pilot_phase(h, rho, tau: int,
                noise_rng: np.random.Generator | None) -> PilotObservation:
    """Superimpose every cell's pilot transmissions at the target array.

    Y = sum_{l,k} sqrt(rho[l,k]) h[l,k] s_k^H + N with N i.i.d. CN(0, 1);
    ``h`` is the (L, K, M) channel array; pass ``noise_rng=None`` for a
    noiseless block.  All cells share the same sequence book, so
    contributions of same-index users add up.
    """
    rho = np.asarray(rho, dtype=float)
    L, K, M = h.shape
    if rho.shape != (L, K):
        raise ValueError(f"rho must have shape ({L}, {K})")
    if np.any(rho < 0):
        raise ValueError("pilot powers must be non-negative")
    book = pilot_book(K, tau)
    # combined per-sequence signal: b_k = sum_l sqrt(rho[l,k]) h[l,k]
    b = np.einsum("lk,lkm->km", np.sqrt(rho), h)
    y = b.T @ np.conj(book)
    if noise_rng is not None:
        y = y + complex_normal((M, tau), noise_rng)
    return PilotObservation(y=y, rho=rho, book=book)


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-user channel estimates at the target BS."""

    h_hat: np.ndarray  # (K, M) complex
    method: str


def estimate_ls(obs: PilotObservation) -> ChannelEstimate:
    """Least-squares estimates hhat_k = Y s_k / sqrt(rho_0k).

    Correlating with sequence k keeps the target user's channel at unit
    gain, the same-index users of other cells at sqrt(rho_lk/rho_0k), and
    a noise term of per-component variance 1/rho_0k.
    """
    rho_target = obs.rho[0]
    if np.any(rho_target <= 0):
        raise ValueError("target-cell pilot powers must be positive")
    h_hat = (obs.y @ obs.book.T.conj()).T / np.sqrt(rho_target)[:, None]
    return ChannelEstimate(h_hat=h_hat, method=LS)


def mmse_gain(rho_col, beta_col) -> float:
    """Shrinkage factor rho_0 beta_0 / (sum_l rho_l beta_l + 1) for one user.

    ``rho_col`` and ``beta_col`` are the per-cell pilot powers and gains of
    the user's index, target cell first.
    """
    rho = np.asarray(rho_col, dtype=float)
    beta = np.asarray(beta_col, dtype=float)
    if rho[0] <= 0 or beta[0] <= 0:
        raise ValueError("target power and gain must be positive")
    return float(rho[0] * beta[0] / (np.dot(rho, beta) + 1.0))


def estimate_mmse(obs: PilotObservation, beta_slice) -> ChannelEstimate:
    """MMSE estimates: the LS output scaled per user by :func:`mmse_gain`.

    ``beta_slice`` holds the (L, K) large-scale gains toward the target
    BS, assumed known.  The scaling is what makes the estimate collinear
    with the LS one.
    """
    beta_slice = np.asarray(beta_slice, dtype=float)
    if beta_slice.shape != obs.rho.shape:
        raise ValueError("beta_slice must match the pilot power shape")
    ls = estimate_ls(obs)
    K = obs.rho.shape[1]
    c = np.array([mmse_gain(obs.rho[:, k], beta_slice[:, k]) for k in range(K)])
    return ChannelEstimate(h_hat=c[:, None] * ls.h_hat, method=MMSE)


def mmse_gain_matrix(rho_col, beta_col, M: int) -> np.ndarray:
    """Covariance-quotient form of the MMSE filter, for small-M checks.

    Builds E{h hhat^H} and E{hhat hhat^H} under the correlated-pilot model
    and returns their quotient, which collapses to mmse_gain * I_M.
    """
    rho = np.asarray(rho_col, dtype=float)
    beta = np.asarray(beta_col, dtype=float)
    cross = beta[0] * np.eye(M)
    auto = ((np.dot(rho, beta) + 1.0) / rho[0]) * np.eye(M)
    return cross @ np.linalg.inv(auto)


def rcee_sample(h, h_hat) -> float:
    """Squared estimation error relative to the channel energy.

    ||h - hhat||^2 / ||h||^2 for one channel vector; raises on a zero
    channel, for which the ratio is undefined.
    """
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    energy = float(np.vdot(h, h).real)
    if energy == 0.0:
        raise ValueError("relative error undefined for a zero channel")
    err = h_hat - h
    return float(np.vdot(err, err).real) / energy


def rcee_prefix_samples(h, h_hat, m_values) -> np.ndarray:
    """Relative errors restricted to the first m antennas, for each m.

    Valid because per-antenna correlation estimates only involve the same
    antenna's observations: the length-m estimate equals the first m rows
    of the full-length estimate.  ``h``/``h_hat`` are (..., M); returns an
    array of shape (len(m_values),) + batch shape.
    """
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    m_values = np.asarray(m_values, dtype=int)
    if np.any(m_values < 1) or np.any(m_values > h.shape[-1]):
        raise ValueError("antenna counts must lie in [1, M]")
    err_c = np.cumsum(np.abs(h_hat - h) ** 2, axis=-1)
    sig_c = np.cumsum(np.abs(h) ** 2, axis=-1)
    idx = m_values - 1
    return np.moveaxis(err_c[..., idx] / sig_c[..., idx], -1, 0)
