"""System configuration, cell geometry and large-scale fading.

The deployment is a target hexagonal cell at the origin surrounded by one
ring of co-channel interferer cells.  Cell spacing follows from the reuse
factor, users are dropped uniformly in each hexagon, and the attenuation
between every user and the target base station combines log-normal
shadowing with a distance power law.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Only a single interferer ring is modelled, so these are the reuse factors
# for which the co-channel distance D = r*sqrt(3*Gamma) is meaningful.
REUSE_FACTORS = (1, 3, 7)

MAX_CELLS = 7


class ConfigurationError(ValueError):
    """A system configuration violates one of its validity constraints."""


class FixtureFormatError(ValueError):
    """A large-scale fading fixture file is malformed."""


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the multi-cell uplink.

    Parameters
    ----------
    K : int
        Users per cell (at least 2).  Every cell reuses one book of K
        orthonormal pilots, which is what creates pilot contamination.
        After correlation with its pilot a user's noise has variance
        1/rho at any pilot length, so the length is not a parameter.
    M : int
        Base-station antennas (at least 2; the expected relative estimation
        error is unbounded for a single antenna).
    P_total : float
        Total pilot power budget of a cell, linear scale.
    L : int
        Number of cells including the target cell, at most 7 (one ring).
    mu : float
        Upper-bound multiplier of the per-user power box
        [P/(2K), mu*P/K]; must lie in [3/2, (K+1)/2] so that the box
        intersects the budget hyperplane.
    rho_u : float
        Uplink data transmit power (linear) used in the SINR expressions.
    Gamma : int
        Frequency reuse factor, one of {1, 3, 7}.
    r : float
        Cell radius (circumradius of the hexagon), metres.
    sigma_sh : float
        Shadowing standard deviation in dB; 0 disables shadowing.
    gamma_pl : float
        Path-loss exponent.
    r_min : float
        Reference distance of the attenuation model, metres.
    B : float
        Bandwidth in Hz.
    slot_fraction : float
        Fraction (T_s - T_p)/T_s of the slot left for uplink data.
    Tu, To : float
        Useful symbol duration and total symbol duration; only their ratio
        enters the rate, so any common time unit works.
    seed : int
        Root seed for every random stream derived from this configuration.
    """

    K: int
    M: int
    P_total: float
    L: int = 7
    mu: float = 1.5
    rho_u: float = 100.0
    Gamma: int = 1
    r: float = 500.0
    sigma_sh: float = 8.0
    gamma_pl: float = 3.8
    r_min: float = 200.0
    B: float = 20.0e6
    slot_fraction: float = 3.0 / 7.0
    Tu: float = 66.7
    To: float = 71.4
    seed: int = 0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if field.type == "float" and not math.isfinite(getattr(self, field.name)):
                raise ConfigurationError(f"{field.name} must be finite")
        if not (isinstance(self.K, int) and self.K >= 2):
            raise ConfigurationError("K must be an integer >= 2")
        if not (isinstance(self.M, int) and self.M >= 2):
            raise ConfigurationError("M must be an integer >= 2")
        if not (isinstance(self.L, int) and 1 <= self.L <= MAX_CELLS):
            raise ConfigurationError(f"L must be an integer in [1, {MAX_CELLS}]")
        if not self.P_total > 0:
            raise ConfigurationError("P_total must be positive")
        if not (1.5 <= self.mu <= (self.K + 1) / 2):
            raise ConfigurationError(
                f"mu={self.mu} outside [1.5, {(self.K + 1) / 2}] for K={self.K}"
            )
        if not self.rho_u > 0:
            raise ConfigurationError("rho_u must be positive")
        if self.Gamma not in REUSE_FACTORS:
            raise ConfigurationError(f"Gamma must be one of {REUSE_FACTORS}")
        if not (self.r > 0 and self.r_min > 0):
            raise ConfigurationError("r and r_min must be positive")
        if self.sigma_sh < 0:
            raise ConfigurationError("sigma_sh must be non-negative")
        if not self.gamma_pl > 0:
            raise ConfigurationError("gamma_pl must be positive")
        if not self.B > 0:
            raise ConfigurationError("B must be positive")
        if not 0 < self.slot_fraction < 1:
            raise ConfigurationError("slot_fraction must lie in (0, 1)")
        if not (self.Tu > 0 and self.To > 0):
            raise ConfigurationError("Tu and To must be positive")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigurationError("seed must be a non-negative integer")

    @property
    def rho_min(self) -> float:
        """Lower per-user pilot power bound P/(2K)."""
        return self.P_total / (2 * self.K)

    @property
    def rho_max(self) -> float:
        """Upper per-user pilot power bound mu*P/K."""
        return self.mu * self.P_total / self.K

    @property
    def cell_spacing(self) -> float:
        """Distance between co-channel cell centres, r*sqrt(3*Gamma)."""
        return self.r * math.sqrt(3.0 * self.Gamma)

    @property
    def rate_prefactor(self) -> float:
        """Bandwidth and overhead factor multiplying log2(1 + SINR)."""
        return (self.B / self.Gamma) * self.slot_fraction * (self.Tu / self.To)

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_file(cls, path: str | Path) -> "SystemConfig":
        """Read a ``key = value`` configuration file.

        Keys are field names of this class; values are parsed with the
        field's type.  Blank lines and ``#`` comments are ignored.
        """
        text = Path(path).read_text()
        known = {f.name: f for f in dataclasses.fields(cls)}
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = int(val) if known[key].type == "int" else float(val)
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        missing = {"K", "M", "P_total"} - set(values)
        if missing:
            raise ConfigurationError(f"{path}: missing required keys {sorted(missing)}")
        return cls(**values)  # type: ignore[arg-type]


def build_layout(cfg: SystemConfig) -> np.ndarray:
    """The (L, 2) cell centres: the target cell at the origin, then L-1 interferers.

    The interferers sit on a ring of radius r*sqrt(3*Gamma) at multiples
    of 60 degrees, the first-ring positions of a hexagonal reuse pattern.
    """
    d = cfg.cell_spacing
    centers = np.zeros((cfg.L, 2))
    for i in range(1, cfg.L):
        angle = math.radians(60.0 * (i - 1))
        centers[i] = (d * math.cos(angle), d * math.sin(angle))
    return centers


# The six corners of the unit flat-top hexagon, counter-clockwise from +x.
_HEX_CORNERS = np.array([(1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0),
                         (-0.5, math.sqrt(3.0) / 2.0), (-1.0, 0.0),
                         (-0.5, -math.sqrt(3.0) / 2.0), (0.5, -math.sqrt(3.0) / 2.0)])


def drop_users(cfg: SystemConfig, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Place K users uniformly in the radius-``cfg.r`` hexagon of each centre: (..., L, K, 2).

    The hexagon is six equal triangles around its centre.  Each user
    takes one triangle uniformly and a uniform point in it: a uniform
    point (a, b) of the parallelogram spanned by the triangle's two
    corners, folded across its diagonal when a + b > 1.  That is three
    uniforms per user from one generator call, and no rejection.  The
    points are drawn once about the origin, then moved to their centres,
    so a stack (..., L, 2) of layouts of the same number of cells gets
    the same users in each.
    """
    centers = np.asarray(centers, dtype=float)
    pick, a, b = rng.random((3, centers.shape[-2], cfg.K))
    corner = (6.0 * pick).astype(int)
    fold = a + b > 1.0
    a, b = np.where(fold, 1.0 - a, a), np.where(fold, 1.0 - b, b)
    local = (a[..., None] * _HEX_CORNERS[corner]
             + b[..., None] * _HEX_CORNERS[(corner + 1) % 6])
    return centers[..., None, :] + cfg.r * local


def attenuation(distance, r_min: float, exponent: float):
    """Distance-dependent part of the large-scale gain, 1/(1 + (d/r_min)^gamma).

    Bounded by 1 at zero distance, equals 1/2 at the reference distance.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    return 1.0 / (1.0 + (d / r_min) ** exponent)


def sample_shadowing(sigma_sh: float, size, rng: np.random.Generator) -> np.ndarray:
    """Log-normal shadowing gains: 10*log10(z) is N(0, sigma_sh^2)."""
    if sigma_sh < 0:
        raise ValueError("sigma_sh must be non-negative")
    return 10.0 ** (sigma_sh * rng.standard_normal(size) / 10.0)


def large_scale(cfg: SystemConfig, centers: np.ndarray, positions: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """The (..., L, K) large-scale gains toward the target BS for one user drop.

    ``centers`` are the (L, 2) cell centres of :func:`build_layout`, the
    target BS at ``centers[0]``, and ``positions`` the (L, K, 2) users of
    :func:`drop_users`, or stacks (..., L, 2) and (..., L, K, 2) of both.
    beta[l, k] = z / (1 + (d/r_min)^gamma_pl) with d the distance from
    user (l, k) to the target BS and z an i.i.d. log-normal shadowing
    gain, drawn once for the whole stack.  With sigma_sh = 0 the gains
    are a function of geometry.
    """
    centers = np.asarray(centers, dtype=float)
    positions = np.asarray(positions, dtype=float)
    shape = (*centers.shape[:-1], cfg.K, 2)
    if positions.shape != shape:
        raise ValueError(f"positions must have shape {shape}")
    z = sample_shadowing(cfg.sigma_sh, shape[-3:-1], rng)
    diff = positions - centers[..., :1, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return z * attenuation(dist, cfg.r_min, cfg.gamma_pl)


def save_beta_fixture(beta: np.ndarray, path: str | Path) -> None:
    """Write the (L, K) gains toward the target BS as CSV.

    Header row is ``user_1,...,user_K``; each of the L data rows gives the
    gains from that cell's users.  Gains that :func:`load_beta_fixture`
    would reject raise its :class:`FixtureFormatError`, and nothing is
    written.
    """
    beta = np.asarray(beta, dtype=float)
    _check_gains(beta, path)
    header = ",".join(f"user_{k + 1}" for k in range(np.shape(beta)[1]))
    rows = [",".join(repr(float(v)) for v in row) for row in beta]
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n")


def load_beta_fixture(path: str | Path) -> np.ndarray:
    """Load the (L, K) gains saved by :func:`save_beta_fixture`."""
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FixtureFormatError(f"{path}: empty fixture")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"user_{k + 1}" for k in range(len(header))]
    if header != expected:
        raise FixtureFormatError(f"{path}: header must be user_1..user_K, got {header}")
    K = len(header)
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != K:
            raise FixtureFormatError(f"{path}:{lineno}: expected {K} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FixtureFormatError(f"{path}:{lineno}: non-numeric entry") from exc
    slab = np.asarray(rows)
    _check_gains(slab, path)
    return slab


def _check_gains(slab: np.ndarray, path) -> None:
    """The checks a fixture's (L, K) gains must pass, read or written."""
    if not np.all(np.isfinite(slab)) or np.any(slab <= 0):
        raise FixtureFormatError(f"{path}: gains must be positive and finite")
    if not 1 <= slab.shape[0] <= MAX_CELLS:
        raise FixtureFormatError(
            f"{path}: needs 1 to {MAX_CELLS} cell rows, got {slab.shape[0]}")
