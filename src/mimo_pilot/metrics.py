"""Estimation-error, SINR and rate figures of merit.

Closed forms throughout refer to the correlated-pilot uplink: user k
depends on the per-cell pilot powers rho[l, k] and large-scale gains
beta[l, k] of its index, with the target cell at row l = 0.  The
recurring quantity

    upsilon_k = sum_{l != 0} rho[l, k] * beta[l, k] + 1

is the contamination-plus-noise level seen by the correlator.

Shapes: every closed form takes an (L, K) gain slice, cell axis first,
and powers of the same shape, and returns one value per user, shape (K,).
Powers and gains may both carry leading stack axes, (..., L, K), that
broadcast against each other: (D, 1, L, K) gains of D drops against
(D, C, L, K) powers evaluate C allocations on each drop.  Cells are then
axis -2, so row 0 is ``rho[..., 0, :]``, and the result is (..., K), each
slice bit for bit the value of a call on that slice alone.  Those with an
antenna count M also accept a 1-D array of counts and then return
(..., len(M), K): stack axes, then antennas, then users.  A single (L,)
column of gains is one user and drops the user axis; a lone value is a
float.  Inputs are checked once per call, never per allocation or user.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import LS, check_method


def _slices(rho, beta):
    """Checked (..., L, K) powers and (L, K) or (..., 1, L, K) gains, plus a
    column flag; stacked gains without the allocations' 1 are a mismatch."""
    rho = np.asarray(rho, dtype=float)
    beta = np.asarray(beta, dtype=float)
    column = beta.ndim == 1
    if column:
        rho, beta = rho[..., None], beta[:, None]
    if (beta.ndim < 2 or beta.size == 0 or rho.shape[-2:] != beta.shape[-2:]
            or beta.shape[-3:-2] not in ((), (1,))):
        raise ValueError("rho must be (..., L, K) against (L, K) or (..., 1, L, K) "
                         "gains, or (..., L) against an (L,) column")
    if (rho < 0).any() or (beta <= 0).any():
        raise ValueError("powers must be non-negative and gains positive")
    if (rho[..., 0, :] <= 0).any():
        raise ValueError("target-cell power must be positive")
    return rho, beta, column


def _gains(beta):
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 0 or beta.size == 0 or np.any(beta <= 0):
        raise ValueError("beta must be (..., L, K) slices or an (L,) column of positive gains")
    column = beta.ndim == 1
    return (beta[:, None] if column else beta), column


def _antennas(M, least: int):
    m = np.asarray(M)
    if m.ndim > 1 or m.dtype.kind not in "iu" or np.any(m < least):
        raise ValueError(f"M must be an integer >= {least} or a 1-D array of them")
    return m[:, None] if m.ndim else m


def _per_antenna(m, *terms):
    """Per-user terms, with an antenna axis before the users for a grid of M."""
    return terms if m.ndim == 0 else tuple(t[..., None, :] for t in terms)


def _shaped(values, column: bool):
    """Drop the user axis of a column input; a lone value becomes a float."""
    if column:
        values = values[..., 0]
    return float(values) if values.ndim == 0 else values


def _cell_dot(a, b):
    """sum_l a[..., l, k] * b[..., l, k] for every user k.

    A vector dot of each strided column, which is what ``np.dot`` does on
    ``a[:, k]``, so every user's sum is formed in the same order as a
    one-column call would form it.  Leading axes broadcast.
    """
    a, b = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _upsilon(rho, beta):
    return _cell_dot(rho[..., 1:, :], beta[..., 1:, :]) + 1.0


def _total(rho, beta):
    """sum_l rho_l beta_l + 1, the full received pilot level."""
    return _cell_dot(rho, beta) + 1.0


def _error_terms(method: str, M, ups, own, total):
    """Expected relative errors from upsilon, rho_0 beta_0 and the full level.

    The kernel behind :func:`exp_rcee_closed` and the allocator objective;
    it checks nothing.  ``total ** 2`` goes through ``pow`` (float_power),
    as a Python float power does, not through a plain square.
    """
    if method == LS:
        return M * ups / ((M - 1) * own)
    return ups * (ups + M * own / (M - 1)) / np.float_power(total, 2)


def _bound_terms(M, ups, total):
    """M * upsilon / ((M-1) * total), the MMSE bound; checks nothing."""
    return M * ups / ((M - 1) * total)


def exp_rcee_closed(method: str, M, rho, beta):
    """Expected relative estimation error at M antennas.

    Infinite for M = 1 (the inverse channel energy has no mean there).
    For M >= 2:

        LS:   M * upsilon / ((M-1) * rho_0 * beta_0)
        MMSE: upsilon * (upsilon + M rho_0 beta_0 / (M-1))
              / (sum_l rho_l beta_l + 1)^2
    """
    check_method(method)
    m = _antennas(M, 1)
    rho, beta, column = _slices(rho, beta)
    terms = _per_antenna(m, _upsilon(rho, beta), rho[..., 0, :] * beta[..., 0, :],
                         _total(rho, beta))
    with np.errstate(divide="ignore"):  # M = 1 divides by zero: infinite error
        out = _error_terms(method, m, *terms)
    return _shaped(out, column)


def exp_rcee_bound_mmse(M, rho, beta):
    """Upper bound M*upsilon / ((M-1)(sum_l rho_l beta_l + 1)) on the MMSE error.

    Strictly above the exact expectation for every M >= 2.
    """
    m = _antennas(M, 2)
    rho, beta, column = _slices(rho, beta)
    terms = _per_antenna(m, _upsilon(rho, beta), _total(rho, beta))
    return _shaped(_bound_terms(m, *terms), column)


def exp_rcee_limit(method: str, rho, beta):
    """Large-antenna limit of the expected relative estimation error.

    LS tends to upsilon / (rho_0 beta_0); MMSE to upsilon / (upsilon +
    rho_0 beta_0).  Neither vanishes while other cells transmit on the
    same sequence, which is the pilot-contamination floor in M.
    """
    check_method(method)
    rho, beta, column = _slices(rho, beta)
    ups = _upsilon(rho, beta)
    own = rho[..., 0, :] * beta[..., 0, :]
    return _shaped(ups / own if method == LS else ups / (ups + own), column)


def exp_rcee_eppa_limit(method: str, beta, K: int, P: float):
    """Large-antenna error limit under equal pilot powers rho = P/K.

    The power cancels almost everywhere, leaving the interference gains
    plus the noise share K/P.
    """
    check_method(method)
    beta, column = _gains(beta)
    if K < 1 or P <= 0:
        raise ValueError("K must be >= 1 and P positive")
    interference = beta[..., 1:, :].sum(axis=-2) + K / P
    if method == LS:
        return _shaped(interference / beta[..., 0, :], column)
    return _shaped(interference / (beta.sum(axis=-2) + K / P), column)


def exp_rcee_eppa_floor(method: str, beta):
    """Joint limit of :func:`exp_rcee_eppa_limit` as the budget grows.

    Only the gain ratios survive: LS gives sum_{l != 0} beta_l / beta_0,
    MMSE gives sum_{l != 0} beta_l / sum_l beta_l.
    """
    check_method(method)
    beta, column = _gains(beta)
    interference = beta[..., 1:, :].sum(axis=-2)
    if method == LS:
        return _shaped(interference / beta[..., 0, :], column)
    return _shaped(interference / beta.sum(axis=-2), column)


def sinr_closed(M, rho, beta, rho_u: float):
    """Matched-filter uplink SINR of every target-cell user at M antennas.

    ``rho`` and ``beta`` are the (L, K) pilot powers and gains toward the
    target BS; every user's interference includes all L*K gains of its
    slice.  The value is the same whichever of the two estimators produced
    the filter, because they are collinear.
    """
    m = _antennas(M, 1)
    if rho_u <= 0:
        raise ValueError("rho_u must be positive")
    rho, beta, column = _slices(rho, beta)
    # each slice's gains summed in the order of a one-slice ``beta.sum()``
    own, beta_0, contaminated, total, gain_sum = _per_antenna(
        m, rho[..., 0, :] * beta[..., 0, :], beta[..., 0, :],
        _cell_dot(rho[..., 1:, :], beta[..., 1:, :] ** 2), _total(rho, beta),
        beta.sum(axis=(-2, -1))[..., None])
    numer = m * own * beta_0
    coherent = m * contaminated
    numer_total = total * (1.0 / rho_u + gain_sum)
    return _shaped(numer / (coherent + numer_total), column)


def sinr_limit(rho, beta):
    """Large-antenna SINR limit rho_0 beta_0^2 / sum_{l != 0} rho_l beta_l^2.

    Infinite when no other cell reuses the sequence: without pilot
    contamination the matched filter's SINR grows without bound in M.
    """
    rho, beta, column = _slices(rho, beta)
    denom = _cell_dot(rho[..., 1:, :], beta[..., 1:, :] ** 2)
    with np.errstate(divide="ignore"):
        out = rho[..., 0, :] * np.float_power(beta[..., 0, :], 2) / denom
    return _shaped(out, column)


def achievable_rate(cfg, sinr):
    """Net uplink rate (B/Gamma) * slot_fraction * (Tu/To) * log2(1+SINR).

    Elementwise over an array of SINRs.  ``math.log2`` is applied per
    value: ``np.log2`` can round differently in the last bit.
    """
    s = np.asarray(sinr, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR must be non-negative")
    logs = np.array([math.log2(v) for v in (1.0 + s).ravel().tolist()])
    return _shaped(cfg.rate_prefactor * logs.reshape(s.shape), False)
