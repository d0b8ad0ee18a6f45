"""Radial laws on the PSD cone, their exact moment functionals, and
samplers for the lifted laws on p x q matrices.

A law is either a finite mixture of PSD "radius" atoms (any q) or, for
q = 1, a named parametric family with closed-form moments.  Both carry
exact second and fourth moments by construction, so every covariance
prediction downstream is exact rather than estimated.

Sampling the lift draws a radius r from the law and then a uniform point
on the orbit {x : sqrt(x'x) = r} via the Gaussian polar construction
Y = G (G'G)^{-1/2}, X = Y r, which inherits orthogonal invariance from G
and needs only q x q eigenwork per draw.

Monomial moments touch at most 8 rows, so their Monte Carlo draws only
those rows: the top k rows of the frame are G_K L^{-T}, L = chol(G_K'G_K + W),
with W ~ Wishart(p - k, I_q) drawn by Bartlett's decomposition.  Its time and
memory are bounded by (chunk, k, q) arrays whatever p is; the full
(count, p, q) sampler stays as the reference for the walk and the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadArity, NotPSD, RankDeficient
from .matrix_core import chol_psd, gram, psd_sqrt, solve_lower_t, symmetrize

__all__ = [
    "RadialLaw",
    "RadialSampleBatch",
    "r2",
    "sigma_nu",
    "t_nu",
    "phi",
    "uniform_sphere_cosine",
    "sample_radial_batch",
    "normalize_kappa",
    "kappa_weight",
    "kappa_all_rows_even",
    "radial_moment_mc",
]

_WEIGHT_TOL = 1e-12
_RADIUS_EIG_FLOOR = -1e-10


def _real(value, field: str) -> float:
    """A config number as a float; NaN, infinities, bools, strings and
    integers beyond the float range are refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    return float(value)


class RadialLaw:
    """Probability law on the PSD cone of q x q matrices.

    Use the classmethod constructors.  Discrete laws store ``weights`` and
    ``radii``; the continuous q = 1 family ``uniform_interval`` stores its
    endpoints and exposes the same exact moment interface.  All supported
    laws are bounded, so fourth moments are finite by construction.
    """

    def __init__(self, q, family, weights=None, radii=None, params=None):
        self.q = int(q)
        self.family = family
        self.params = dict(params) if params else {}
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            radii = np.asarray(radii, dtype=np.float64)
            if radii.shape != (weights.size, self.q, self.q):
                raise BadArity(f"radii must have shape (n, {self.q}, {self.q}), got {radii.shape}")
            if np.any(weights <= 0):
                raise ValueError("atom weights must be positive")
            if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
                raise ValueError(f"atom weights sum to {weights.sum()!r}, not 1")
            for a, r in enumerate(radii):
                if not np.array_equal(r, r.T):
                    raise NotPSD(f"atoms[{a}].radius: matrix is not symmetric")
                if np.linalg.eigvalsh(r).min() < _RADIUS_EIG_FLOOR:
                    raise NotPSD(f"atoms[{a}].radius: matrix has a negative eigenvalue")
            weights.flags.writeable = False
            radii.flags.writeable = False
        self.weights = weights
        self.radii = radii
        self._cum = None if weights is None else np.cumsum(weights)

    @classmethod
    def from_atoms(cls, radii, weights) -> "RadialLaw":
        """Finite discrete law with PSD matrix radii."""
        radii = np.asarray(radii, dtype=np.float64)
        if radii.ndim == 1:  # scalar radii for q = 1
            radii = radii.reshape(-1, 1, 1)
        return cls(radii.shape[1], "atoms", weights=weights, radii=radii)

    @classmethod
    def point_mass(cls, radius: float) -> "RadialLaw":
        """q = 1 point mass at a single nonnegative radius."""
        return cls(1, "point_mass", weights=[1.0], radii=np.array([[[float(radius)]]]),
                   params={"radius": float(radius)})

    @classmethod
    def two_point(cls, r_a: float, p_a: float, r_b: float) -> "RadialLaw":
        """q = 1 two-point law: radius r_a with probability p_a, else r_b."""
        return cls(1, "two_point", weights=[p_a, 1.0 - p_a],
                   radii=np.array([[[float(r_a)]], [[float(r_b)]]]),
                   params={"r_a": float(r_a), "p_a": float(p_a), "r_b": float(r_b)})

    @classmethod
    def uniform_interval(cls, a: float, b: float) -> "RadialLaw":
        """q = 1 radius uniform on [a, b], 0 <= a < b, with closed-form moments."""
        a, b = float(a), float(b)
        if not 0.0 <= a < b:
            raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
        return cls(1, "uniform_interval", params={"a": a, "b": b})

    def moment_scalar(self, k: int) -> float:
        """E[r^k] for q = 1 laws."""
        if self.q != 1:
            raise BadArity("scalar moments only exist for q = 1")
        if self.weights is not None:
            return float(np.sum(self.weights * self.radii[:, 0, 0] ** k))
        a, b = self.params["a"], self.params["b"]
        return float((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)))

    def draw_radii(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """(size, q, q) radii drawn by inverse CDF over atoms (or the closed form).

        The atom index of a uniform u is the number of cumulative weights
        below the last that are <= u; leaving the last one out keeps u in
        range when rounding makes the weights sum to just under 1.
        """
        if self.weights is not None:
            u = rng.random(size)
            idx = np.zeros(size, dtype=np.intp)
            for edge in self._cum[:-1]:
                idx += u >= edge
            if self.q == 1:
                return self.radii.reshape(-1)[idx].reshape(size, 1, 1)
            return self.radii[idx]
        a, b = self.params["a"], self.params["b"]
        return rng.uniform(a, b, size).reshape(size, 1, 1)

    def to_config(self) -> dict:
        """Plain serializable record; radii as row-major entry lists."""
        if self.family == "atoms":
            return {
                "q": self.q,
                "atoms": [
                    {"weight": float(w), "radius": [float(v) for v in r.reshape(-1)]}
                    for w, r in zip(self.weights, self.radii)
                ],
            }
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_config(cls, cfg: dict) -> "RadialLaw":
        """Inverse of :meth:`to_config`.  A bad ``q`` or number raises
        ValueError naming its field (``q``, ``params.b``, ``atoms[0].weight``)."""
        if "family" in cfg:
            family = cfg["family"]
            params = cfg.get("params", {})
            makers = {
                "point_mass": cls.point_mass,
                "two_point": cls.two_point,
                "uniform_interval": cls.uniform_interval,
            }
            if family not in makers:
                raise ValueError(f"unknown law family {family!r}")
            if not isinstance(params, dict):
                raise ValueError(f"params: expected an object, got {params!r}")
            return makers[family](**{name: _real(v, f"params.{name}") for name, v in params.items()})
        q = cfg["q"]
        if isinstance(q, bool) or not isinstance(q, int) or q < 1:
            raise ValueError(f"q: expected an integer >= 1, got {q!r}")
        atoms = cfg["atoms"]
        if not atoms:
            raise ValueError("atoms list is empty")
        weights, radii = [], []
        for a, atom in enumerate(atoms):
            entries = np.asarray(atom["radius"], dtype=object).reshape(-1)
            if entries.size != q * q:
                raise ValueError(f"atoms[{a}].radius: expected {q * q} entries, got {entries.size}")
            weights.append(_real(atom["weight"], f"atoms[{a}].weight"))
            radii.append([_real(v, f"atoms[{a}].radius") for v in entries])
        return cls.from_atoms(np.array(radii).reshape(-1, q, q), weights)

    def __repr__(self):
        if self.family == "atoms":
            return f"RadialLaw(atoms, q={self.q}, n={self.weights.size})"
        return f"RadialLaw({self.family}, {self.params})"


@dataclass(frozen=True)
class RadialSampleBatch:
    """A batch of lifted samples with the radii that generated them."""

    samples: np.ndarray  # (count, p, q)
    radii: np.ndarray  # (count, q, q)


def r2(nu: RadialLaw) -> np.ndarray:
    """Second-moment matrix E[r^2] of the law, exact from atoms or closed form."""
    if nu.weights is not None:
        return symmetrize(np.einsum("a,aij,ajk->ik", nu.weights, nu.radii, nu.radii))
    return np.array([[nu.moment_scalar(2)]])


def _squared_vecs(nu: RadialLaw) -> np.ndarray:
    return np.einsum("aij,ajk->aik", nu.radii, nu.radii).reshape(nu.weights.size, nu.q * nu.q)


def sigma_nu(nu: RadialLaw) -> np.ndarray:
    """Covariance of vec(r^2) under the law, a q^2 x q^2 PSD matrix.

    Independent of the lift dimension by construction.
    """
    if nu.weights is None:
        return np.array([[nu.moment_scalar(4) - nu.moment_scalar(2) ** 2]])
    vecs = _squared_vecs(nu)
    mean = nu.weights @ vecs
    second = np.einsum("a,ai,aj->ij", nu.weights, vecs, vecs)
    return symmetrize(second - np.outer(mean, mean))


def t_nu(nu: RadialLaw) -> np.ndarray:
    """Gaussian limit covariance T = T1 + T2 built entrywise from E[r^2].

    T1[(i,j),(k,l)] = r2[i,k] r2[j,l] and T2[(i,j),(k,l)] = r2[i,l] r2[j,k],
    with (i,j) flattened row-major.
    """
    m = r2(nu)
    q = nu.q
    t1 = np.einsum("ik,jl->ijkl", m, m).reshape(q * q, q * q)
    t2 = np.einsum("il,jk->ijkl", m, m).reshape(q * q, q * q)
    return symmetrize(t1 + t2)


def phi(x) -> np.ndarray:
    """Radial part sqrt(x'x) of a p x q matrix."""
    return psd_sqrt(gram(x))


def uniform_sphere_cosine(p: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """First coordinate of a uniform point on the unit sphere in R^p.

    Its law is (u + 1)/2 ~ Beta((p-1)/2, (p-1)/2), drawn by the polar
    construction (Ulrich, JRSS C 1984; Wood 1994): the first two
    coordinates have a uniform angle and a squared radius R^2 ~
    Beta(1, (p-2)/2), so 1 - R^2 = U1^(2/(p-2)) and u = R cos(2 pi U2).
    For p = 2, R = 1; for p = 1 the sphere is {-1, +1}.
    """
    if p < 1:
        raise BadArity(f"p must be >= 1, got {p}")
    if p == 1:
        return np.where(rng.random(size) < 0.5, -1.0, 1.0)
    if p == 2:
        return np.cos(2.0 * np.pi * rng.random(size))
    u = 1.0 - rng.random(size)  # in (0, 1], so the log is finite
    np.log(u, out=u)
    u *= 2.0 / (p - 2)
    np.expm1(u, out=u)  # -R^2
    np.negative(u, out=u)
    np.sqrt(u, out=u)
    angle = rng.random(size)
    angle *= 2.0 * np.pi
    u *= np.cos(angle, out=angle)
    return u


_RANK_TOL = 1e-12
_MAX_RESAMPLES = 5
# Samples per radial_moment_mc chunk: its largest arrays are (chunk, k, q)
# and (chunk, q, q) floats, 0.25 MB per unit of k*q or q*q.
_MOMENT_CHUNK = 32768


def _orbit_batch(p: int, radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(m, p, q) uniform draws on the orbits of the given radii; the tests' full-frame oracle."""
    m, q, _ = radii.shape
    if p < q:
        raise BadArity(f"need p >= q, got p={p}, q={q}")
    g = rng.standard_normal((m, p, q))
    for _ in range(_MAX_RESAMPLES):
        w, v = np.linalg.eigh(g.transpose(0, 2, 1) @ g)
        bad = w[:, 0] <= _RANK_TOL * w[:, -1]
        if not bad.any():
            break
        g[bad] = rng.standard_normal((int(bad.sum()), p, q))
    else:
        raise RankDeficient(f"Gram matrix stayed singular after {_MAX_RESAMPLES} resamples (p={p}, q={q})")
    inv_sqrt = (v / np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1)
    return g @ (inv_sqrt @ radii)


def _wishart_identity(dof: int, q: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, q, q) draws of Wishart(dof, I_q), in O(q^2) work per draw whatever dof is.

    For dof >= q, Bartlett's decomposition (Odell & Feiveson, JASA 1966):
    W = L L' with L lower triangular, L_ii = sqrt(chi2(dof - i)) and
    N(0, 1) entries below the diagonal.  For dof < q the law is singular
    and W = H'H is built from a (dof, q) Gaussian H drawn directly.
    """
    if dof < q:
        h = rng.standard_normal((m, dof, q))
        return h.transpose(0, 2, 1) @ h
    low = np.tril(rng.standard_normal((m, q, q)), -1)
    diag = np.sqrt(rng.chisquare(dof - np.arange(q), size=(m, q)))
    low[:, np.arange(q), np.arange(q)] = diag
    return low @ low.transpose(0, 2, 1)


def _stiefel_rows(p: int, k: int, q: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, k, q) draws of the top k rows of a uniform p x q Stiefel frame.

    For a p x q Gaussian G and L L' = G'G, the frame G L^{-T} is orthonormal
    and its law is invariant under O(p) on the left, so it is uniform.  With
    G_K the top k rows, G'G = G_K'G_K + W, where W ~ Wishart(p - k, I_q) is
    independent of G_K and drawn by :func:`_wishart_identity`.  So the top
    rows are G_K L^{-T} at a cost and memory that depend on k and q, not p.
    Draws whose smallest squared pivot is at most _RANK_TOL times the largest
    diagonal entry of G'G are redrawn.  By orthogonal invariance any k fixed
    rows have this law, which is all a monomial moment needs (the rows it
    touches) and all a Gram-state walk step needs (k = q: the block Q_S'U of
    a fresh step U against the walk's frame Q_S).
    """
    if p < q:
        raise BadArity(f"need p >= q, got p={p}, q={q}")
    if not 1 <= k <= p:
        raise BadArity(f"need 1 <= k <= p, got k={k}, p={p}")
    g = rng.standard_normal((m, k, q))
    gm = g.transpose(0, 2, 1) @ g + _wishart_identity(p - k, q, m, rng)
    for _ in range(_MAX_RESAMPLES):
        low = chol_psd(gm)
        bad = (low.diagonal(0, 1, 2) ** 2).min(1) <= _RANK_TOL * gm.diagonal(0, 1, 2).max(1)
        if not bad.any():
            break
        nbad = int(bad.sum())
        g[bad] = gb = rng.standard_normal((nbad, k, q))
        gm[bad] = gb.transpose(0, 2, 1) @ gb + _wishart_identity(p - k, q, nbad, rng)
    else:
        raise RankDeficient(f"Gram matrix stayed singular after {_MAX_RESAMPLES} resamples (p={p}, q={q})")
    return solve_lower_t(g, low)


def sample_radial_batch(p: int, nu: RadialLaw, count: int, rng: np.random.Generator) -> RadialSampleBatch:
    """Batch of lifted draws, keeping the radii for exact per-sample checks."""
    radii = nu.draw_radii(count, rng)
    samples = _orbit_batch(p, radii, rng)
    return RadialSampleBatch(samples=samples, radii=radii)


def normalize_kappa(kappa) -> dict[tuple[int, int], int]:
    """Canonicalize a sparse matrix multi-index to {(row, col): exponent}."""
    items = kappa.items() if isinstance(kappa, dict) else kappa
    out: dict[tuple[int, int], int] = {}
    for key, e in items:
        i, j = (int(key[0]), int(key[1]))
        e = int(e)
        if e < 0:
            raise BadArity("exponents must be nonnegative")
        if e == 0:
            continue
        if i < 0 or j < 0:
            raise BadArity("index entries must be nonnegative")
        out[(i, j)] = out.get((i, j), 0) + e
    return out


def kappa_weight(kappa) -> int:
    return sum(normalize_kappa(kappa).values())


def kappa_all_rows_even(kappa) -> bool:
    """True when every row sum of the multi-index is even."""
    rows: dict[int, int] = {}
    for (i, _), e in normalize_kappa(kappa).items():
        rows[i] = rows.get(i, 0) + e
    return all(s % 2 == 0 for s in rows.values())


def radial_moment_mc(p: int, nu: RadialLaw, kappa, trials: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the monomial moment E[prod X_ij^kappa_ij]
    under the lifted law, with its standard error.

    Only the distinct rows that kappa touches are drawn (at most 8, by
    :func:`_stiefel_rows`), so time and memory do not depend on p.
    """
    kap = normalize_kappa(kappa)
    weight = sum(kap.values())
    if weight == 0 or weight > 8:
        raise BadArity(f"need 1 <= |kappa| <= 8, got {weight}")
    if trials < 1000:
        raise BadArity(f"need trials >= 1000, got {trials}")
    for i, j in kap:
        if i >= p or j >= nu.q:
            raise BadArity(f"kappa index ({i},{j}) outside {p}x{nu.q}")
    rows = sorted({i for i, _ in kap})
    local = {(rows.index(i), j): e for (i, j), e in kap.items()}
    vals = np.empty(trials)
    done = 0
    while done < trials:
        m = min(_MOMENT_CHUNK, trials - done)
        radii = nu.draw_radii(m, rng)
        x = _stiefel_rows(p, len(rows), nu.q, m, rng) @ radii
        mono = np.ones(m)
        for (i, j), e in local.items():
            mono *= x[:, i, j] ** e
        vals[done : done + m] = mono
        done += m
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(trials))
    return est, se
