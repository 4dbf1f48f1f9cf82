"""Fast fading and the matched-filter SINR.

:func:`complex_normal` and :func:`sample_channels` draw the fading, and
:func:`matched_filter_sinr` assembles a user's Monte-Carlo moments into
its uplink SINR.  Everything here is expressed at the target base
station: channel vectors h[l, k] are the links from user k of cell l to
the target array, drawn as circularly-symmetric complex Gaussians scaled
by the large-scale gains.
"""

from __future__ import annotations

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


def sample_channels(beta, M: int, rng: np.random.Generator) -> np.ndarray:
    """Draw h[l, k] ~ CN(0, beta[l, k] * I_M) for every user.

    ``beta`` is the (L, K) array of gains toward the target base station;
    returns the (L, K, M) complex channel array.
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
    return h


def matched_filter_sinr(signal_gain, cross_energy, filter_energy, rho_u: float):
    """The matched-filter uplink SINR of a user's Monte-Carlo moments.

    ``signal_gain`` is |E{hhat^H h}|^2 for the user's own channel,
    ``cross_energy[..., l, n]`` is E{|hhat^H h[l, n]|^2} against every user
    in the system, and ``filter_energy`` is E{||hhat||^2}.  The moments may
    carry leading stack axes, e.g. (C, K) for C allocations of K users,
    with ``cross_energy`` (C, K, L, K); the SINR then has the stack shape.
    """
    interference = rho_u * (cross_energy.sum(axis=(-2, -1)) - signal_gain)
    return rho_u * signal_gain / (interference + filter_energy)
