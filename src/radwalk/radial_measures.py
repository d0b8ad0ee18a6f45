"""Radial laws on the PSD cone, their exact moment functionals, and
samplers for the lifted laws on p x q matrices.

A law is either a finite mixture of PSD "radius" atoms (any q) or, for
q = 1, a named parametric family with closed-form moments.  Both carry
exact second and fourth moments by construction, so every covariance
prediction downstream is exact rather than estimated.

Sampling the lift draws a radius r from the law and then a uniform point
X = U r on its orbit {x : sqrt(x'x) = r}, with U a uniform p x q Stiefel
frame.  Every frame comes from one construction: the top k rows of U are
G_K L^{-T}, L L' = H'H, for the stacked factor H = [G_K; F] with F'F ~
Wishart(p - k, I_q) drawn by Bartlett's decomposition.  A lifted batch
takes all p rows (F is then empty); monomial moments and the Gram walk's
step take only the few rows they touch, so their time and memory are
bounded by trials-last (k + q, q, chunk) arrays whatever p is.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral

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
    "kappa_all_rows_even",
    "radial_moment_mc",
    "SAMPLE_BYTES_CAP",
    "Q_CAP",
    "ATOMS_CAP",
]

_WEIGHT_TOL = 1e-12
_RADIUS_EIG_FLOOR = -1e-10
# the parameters each named law family takes
_FAMILIES = {"point_mass": ("radius",), "two_point": ("r_a", "p_a", "r_b"), "uniform_interval": ("a", "b")}


def _real(value, field: str) -> float:
    """A config number as a float; NaN, infinities, bools, strings and
    integers beyond the float range are refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise BadArity(f"{field}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str, minimum: int, maximum: int | None = None) -> int:
    """A config integer from ``minimum`` to ``maximum`` (if given) as an int;
    bools, floats and strings are refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise BadArity(f"{field}: expected an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise BadArity(f"{field}: expected an integer <= {maximum}, got {value!r}")
    return int(value)


# The one work rule on an entry's size: the samples it keeps (trials times
# q*q doubles for a walk, trials doubles for a moment estimate) fit in this.
SAMPLE_BYTES_CAP = 1 << 28
# The largest q of a law: a walk task's two (q, q, 32, 4096) float64 block
# buffers then hold at most half of SAMPLE_BYTES_CAP bytes, and Sigma(nu), T(nu) stay small.
Q_CAP = 8
# The most atoms of a law: a radius draw makes one pass per atom, so this bounds a trial-step's time.
ATOMS_CAP = 64


def _trials(value, minimum: int, sample_bytes: int) -> int:
    """A config ``trials`` >= ``minimum`` whose samples of ``sample_bytes`` each fit in SAMPLE_BYTES_CAP."""
    return _integer(value, "trials", minimum, SAMPLE_BYTES_CAP // sample_bytes)


def _config_keys(obj, name: str, keys, optional=()) -> None:
    """Refuse a config object (a law's, a manifest's or an entry's) at path
    ``name`` unless it has all of ``keys`` and no key outside ``keys`` and ``optional``."""
    if not isinstance(obj, dict):
        raise BadArity(f"{name or 'law'}: expected an object, got {obj!r}")
    odd = [key for key in obj if key not in keys and key not in optional] + [key for key in keys if key not in obj]
    if odd:
        field = f"{name}.{odd[0]}" if name else odd[0]
        raise BadArity(f"{field}: {'unknown field' if odd[0] in obj else 'missing'}")


def _param_rule(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise BadArity(f"params.{name}: must {rule}, got {value!r}")


class RadialLaw:
    """Probability law on the PSD cone of q x q matrices.

    Use the classmethod constructors.  Discrete laws store ``weights`` and
    ``radii``; the continuous q = 1 family ``uniform_interval`` stores its
    endpoints and exposes the same exact moment interface.  All supported
    laws are bounded; a law whose exact moments up to order 4 overflow a
    float is refused, naming its largest parameter or radius.
    """

    def __init__(self, q, family, weights=None, radii=None, params=None):
        self.q = _integer(q, "q", 1, Q_CAP)
        self.family = family
        self.params = dict(params) if params else {}
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            _integer(weights.size, "atoms", 1, ATOMS_CAP)
            radii = np.asarray(radii, dtype=np.float64)
            if radii.shape != (weights.size, self.q, self.q):
                raise BadArity(f"radii must have shape (n, {self.q}, {self.q}), got {radii.shape}")
            for name, values in (("weight", weights), ("radius", radii)):  # NaN would slip past the rules below
                finite = np.isfinite(values.reshape(weights.size, -1)).all(axis=1)
                if not finite.all():
                    raise BadArity(f"atoms[{finite.argmin()}].{name}: must be finite")
            if np.any(weights <= 0):
                raise BadArity(f"atoms[{np.argmax(weights <= 0)}].weight: must be positive")
            if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
                raise BadArity(f"atoms: weights sum to {float(weights.sum())!r}, not 1")
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
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                finite = np.isfinite(sigma_nu(self)).all() and np.isfinite(t_nu(self)).all()
            except OverflowError:  # a float power in the closed-form moments
                finite = False
        if not finite:
            field = (f"params.{max(self.params, key=lambda k: abs(self.params[k]))}" if self.params
                     else f"atoms[{np.abs(radii).max(axis=(1, 2)).argmax()}].radius")
            raise BadArity(f"{field}: the law's moments up to order 4 are not finite")

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
        _param_rule(radius >= 0, "radius", "be >= 0", radius)
        return cls(1, "point_mass", weights=[1.0], radii=np.array([[[float(radius)]]]),
                   params={"radius": float(radius)})

    @classmethod
    def two_point(cls, r_a: float, p_a: float, r_b: float) -> "RadialLaw":
        """q = 1 two-point law: radius r_a with probability p_a, else r_b."""
        _param_rule(r_a >= 0, "r_a", "be >= 0", r_a)
        _param_rule(0 < p_a < 1, "p_a", "lie in (0, 1)", p_a)
        _param_rule(r_b >= 0, "r_b", "be >= 0", r_b)
        return cls(1, "two_point", weights=[p_a, 1.0 - p_a],
                   radii=np.array([[[float(r_a)]], [[float(r_b)]]]),
                   params={"r_a": float(r_a), "p_a": float(p_a), "r_b": float(r_b)})

    @classmethod
    def uniform_interval(cls, a: float, b: float) -> "RadialLaw":
        """q = 1 radius uniform on [a, b], 0 <= a < b, with closed-form moments."""
        a, b = float(a), float(b)
        _param_rule(a >= 0, "a", "be >= 0", a)
        _param_rule(b > a, "b", f"exceed a = {a}", b)
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
        """(q, q, size) radii, trials-last, by inverse CDF over atoms (or the closed form).

        The atom index of a uniform u is the number of cumulative weights
        below the last that are <= u; leaving the last one out keeps u in
        range when rounding makes the weights sum to just under 1.
        """
        if self.weights is not None:
            u = rng.random(size)
            idx = np.zeros(size, dtype=np.intp)
            for edge in self._cum[:-1]:
                idx += u >= edge
            return np.take(self.radii.transpose(1, 2, 0), idx, axis=-1)  # [..., idx] is up to 3x slower
        a, b = self.params["a"], self.params["b"]
        return rng.uniform(a, b, size).reshape(1, 1, size)

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
        """Inverse of :meth:`to_config`.  Every error is a RadwalkError whose
        message starts with the field's path in the law: ``q``, ``params.b``,
        ``atoms[0].radius`` or, for a key the law does not take, the key."""
        if isinstance(cfg, dict) and "family" in cfg:
            _config_keys(cfg, "", ("family", "params"))
            family, params = cfg["family"], cfg["params"]
            if not isinstance(family, str) or family not in _FAMILIES:
                raise BadArity(f"family: expected one of {list(_FAMILIES)}, got {family!r}")
            _config_keys(params, "params", _FAMILIES[family])
            return getattr(cls, family)(**{name: _real(v, f"params.{name}") for name, v in params.items()})
        _config_keys(cfg, "", ("q", "atoms"))
        q = _integer(cfg["q"], "q", 1, Q_CAP)
        atoms = cfg["atoms"]
        if not isinstance(atoms, list) or not atoms:
            raise BadArity(f"atoms: expected a nonempty list, got {atoms!r}")
        weights, radii = [], []
        for a, atom in enumerate(atoms):
            _config_keys(atom, f"atoms[{a}]", ("weight", "radius"))
            entries = np.asarray(atom["radius"], dtype=object).reshape(-1)
            if entries.size != q * q:
                raise BadArity(f"atoms[{a}].radius: expected {q * q} entries, got {entries.size}")
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
    Beta(1, (p-2)/2), so 1 - R^2 = U1^(2/(p-2)), and u is R times the sine
    of a uniform angle.  That sine is sin 2 theta = 2t/(1 + t^2) with
    theta = pi (U2 - 1/2)/2 uniform on [-pi/4, pi/4) and t = tan theta in
    [-1, 1): the same arcsine law as cos(2 pi U2), and tan on that short
    range costs a fraction of cos on [0, 2 pi).  So u = 2R t/(1 + t^2),
    which rounds to no more than 1 in modulus.  For p = 2, R = 1 and only
    U2 is drawn; for p = 1 the sphere is {-1, +1}.
    """
    if p < 1:
        raise BadArity(f"p must be >= 1, got {p}")
    if p == 1:
        return np.where(rng.random(size) < 0.5, -1.0, 1.0)
    two_r = 2.0
    if p > 2:
        two_r = 1.0 - rng.random(size)  # in (0, 1], so the log is finite
        np.log(two_r, out=two_r)
        two_r *= 2.0 / (p - 2)
        np.expm1(two_r, out=two_r)  # -R^2
        two_r *= -4.0
        np.sqrt(two_r, out=two_r)  # 2R
    t = rng.random(size)
    t -= 0.5
    t *= 0.5 * np.pi
    np.tan(t, out=t)
    den = np.multiply(t, t)
    den += 1.0
    t *= two_r
    t /= den
    return t


_RANK_TOL = 1e-12
_MAX_RESAMPLES = 5
# Samples per radial_moment_mc chunk: its largest arrays are (k + q, q, chunk)
# and (chunk, q, q) floats, 0.25 MB per unit of (k + q)*q or q*q.
_MOMENT_CHUNK = 32768


def _stiefel_rows(p: int, k: int, q: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Trials-last (k, q, m) draws of the top k rows of a uniform p x q Stiefel frame.

    For a p x q Gaussian G and L L' = G'G, the frame G L^{-T} is orthonormal
    and invariant under O(p) on the left, so it is uniform.  Its top k rows
    G_K L^{-T} need only G'G = H'H for the stacked H = [G_K; F], where F is
    the R of a QR of the other p - k rows of G, the Bartlett factor (Odell &
    Feiveson, JASA 1966): an f x q upper trapezoid, f = min(p - k, q), with
    F_ii = sqrt(chi2(p - k - i)) and N(0, 1) entries right of the diagonal,
    so F'F ~ Wishart(p - k, I_q) for every p - k, and cost and memory
    depend on k and q, not p.  H is trials-last, (k + f, q, m), so each entry
    of H'H, of its factor and of the solve is one vector op over the draws.
    Draws whose smallest squared pivot is at most _RANK_TOL times the largest
    diagonal entry of H'H are redrawn.  By orthogonal invariance any k fixed
    rows have this law: the rows a monomial moment touches, (k = q) the block
    Q_S'U of a fresh step U against the walk's frame Q_S, or (k = p, F
    empty) the whole frame of a lifted draw.
    """
    if p < q:
        raise BadArity(f"need p >= q, got p={p}, q={q}")
    if not 1 <= k <= p:
        raise BadArity(f"need 1 <= k <= p, got k={k}, p={p}")

    f = min(p - k, q)
    up_rows, up_cols = np.triu_indices(f, 1, q)
    diag = np.arange(f)

    def stack(count):  # H = [G_K; F] for count draws, trials-last
        h = np.zeros((k + f, q, count))
        h[:k] = rng.standard_normal((count, k, q)).transpose(1, 2, 0)
        h[k + up_rows, up_cols] = rng.standard_normal((count, up_rows.size)).T
        h[k + diag, diag] = np.sqrt(rng.chisquare(p - k - diag, size=(count, f))).T
        return h

    h = stack(m)
    gm, low = np.empty((q, q, m)), np.empty((q, q, m))
    for _ in range(_MAX_RESAMPLES):
        for i, j in zip(*np.tril_indices(q)):  # H'H, lower triangle
            np.einsum("rm,rm->m", h[:, i], h[:, j], out=gm[i, j])
        chol_psd(gm, low)
        bad = (low.diagonal() ** 2).min(1) <= _RANK_TOL * gm.diagonal().max(1)
        if not bad.any():
            break
        h[..., bad] = stack(int(bad.sum()))
    else:
        raise RankDeficient(f"Gram matrix stayed singular after {_MAX_RESAMPLES} resamples (p={p}, q={q})")
    return solve_lower_t(h[:k], low)


def sample_radial_batch(p: int, nu: RadialLaw, count: int, rng: np.random.Generator) -> RadialSampleBatch:
    """Batch of lifted draws X = U r, U the whole frame from :func:`_stiefel_rows`,
    keeping the radii for exact per-sample checks."""
    radii = np.ascontiguousarray(nu.draw_radii(count, rng).transpose(2, 0, 1))
    samples = _stiefel_rows(p, p, nu.q, count, rng).transpose(2, 0, 1) @ radii
    return RadialSampleBatch(samples=samples, radii=radii)


def normalize_kappa(kappa) -> dict[tuple[int, int], int]:
    """Canonicalize a sparse matrix multi-index, given as a dict or as
    ((row, col), exponent) items of integers >= 0, to {(row, col): exponent}
    with repeated entries merged, zero exponents dropped and keys sorted."""
    items = kappa.items() if isinstance(kappa, dict) else kappa
    out: dict[tuple[int, int], int] = {}
    try:
        for (i, j), e in items:
            e = _integer(e, "kappa", 0)
            if e:
                key = (_integer(i, "kappa", 0), _integer(j, "kappa", 0))
                out[key] = out.get(key, 0) + e
    except (TypeError, ValueError) as exc:
        raise BadArity(f"kappa: expected [[row, col], exponent] items ({exc})") from exc
    return dict(sorted(out.items()))


def _monomial_rules(kappa, p: int, q: int, trials: int) -> dict[tuple[int, int], int]:
    """The canonical kappa of a monomial-moment estimate on p x q matrices,
    after checking its rules: total exponent 1 to 8, every index inside
    p x q, and trials >= 1000 within the sample cap."""
    kap = normalize_kappa(kappa)
    weight = sum(kap.values())
    if not 1 <= weight <= 8:
        raise BadArity(f"kappa: total exponent must be 1 to 8, got {weight}")
    for i, j in kap:
        if i >= p or j >= q:
            raise BadArity(f"kappa: index ({i},{j}) lies outside {p}x{q}")
    _trials(trials, 1000, 8)
    return kap


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
    kap = _monomial_rules(kappa, p, nu.q, trials)
    rows = sorted({i for i, _ in kap})
    local = {(rows.index(i), j): e for (i, j), e in kap.items()}
    vals = np.empty(trials)
    done = 0
    while done < trials:
        m = min(_MOMENT_CHUNK, trials - done)
        radii = nu.draw_radii(m, rng)
        w = _stiefel_rows(p, len(rows), nu.q, m, rng)
        mono = np.ones(m)
        for (i, j), e in local.items():
            mono *= sum(w[i, l] * radii[l, j] for l in range(nu.q)) ** e  # x_ij = (W r)_ij
        vals[done : done + m] = mono
        done += m
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(trials))
    return est, se
