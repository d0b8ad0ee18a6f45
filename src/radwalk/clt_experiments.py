"""Simulate the radial walks, decompose the centered squared-radius
statistic into its per-step and cross-term parts, predict exact finite-n
covariances, estimate empirical ones, and judge each comparison PASS or FAIL.

Let S_n be the walk sum and r2 the law's second-moment matrix.  Per trial

    Xi_n = gram(S_n) - n r2        (the statistic under test)
    A_n  = sum_i gram(X_i) - n r2  (per-step squared radii, centered)
    B_n  = Xi_n - A_n              (cross terms sum_{a != b} X_a' X_b)

hold exactly, and the trial covariances satisfy the exact finite-n identity

    Cov(vec Xi_n) = n Sigma(nu) + (n (n-1) / p) T(nu)

with zero cross-covariance between the parts: every cross term carries a
factor that is odd in some row of one step, so its expectation vanishes.

Xi_n depends on the walk only through its q x q Gram matrix S_k'S_k, which
by orthogonal invariance is a Markov chain of its own.  Every experiment
runs that chain (:func:`_gram_chunk`), at a cost per step independent of p.

Trials are split into chunks of CHUNK_TRIALS = 512, the unit of the random
streams: each chunk owns a PCG64 stream, seeded by a SeedSequence keyed by
(seed, stream tag, chunk index), and draws into its own slice of trials.  A
task steps a contiguous group of up to ``_GROUP_CHUNKS`` chunks side by side
as one state, so a step's ufunc calls are paid once per group.  An entry
opens a process pool only when its work pays for one: each worker must get
``_POOL_WORK`` trial-steps weighted by q^3, so small entries run in this
process.  The result bytes depend neither on the grouping nor on the worker
count: every draw and every per-trial operation is the same either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from math import erfc, log, sqrt

import numpy as np

from .errors import BadArity, TooFewSamples
from .matrix_core import chol_psd, frobenius_norm, symmetrize
from .radial_measures import (
    RadialLaw,
    _integer,
    _monomial_rules,
    _real,
    _stiefel_rows,
    _trials,
    kappa_all_rows_even,
    r2,
    radial_moment_mc,
    sigma_nu,
    t_nu,
)

__all__ = [
    "CHUNK_TRIALS",
    "WORKERS_CAP",
    "KS_ALPHA",
    "TRIAL_STEPS_CAP",
    "P_CAP",
    "REGIMES",
    "CHECKS",
    "WalkConfig",
    "MomentSweep",
    "CovarianceEstimate",
    "ExperimentReport",
    "MomentDecayReport",
    "trial_stream",
    "judge",
    "predict_covariances",
    "estimate_covariance",
    "verify_clt",
    "moment_decay_experiment",
]

# Fixed work-unit size: chunk k of an experiment always covers trials
# [k*CHUNK_TRIALS, ...), whatever the worker count.
CHUNK_TRIALS = 512
# A process pool forks all its workers at its first task, so a walk's workers
# are capped: at 64, or at the host's CPU count where that is larger.
WORKERS_CAP = max(64, os.cpu_count() or 1)
# Chunks a task steps side by side, as one kernel call: wide enough that a
# step's ufunc calls cost little per trial (at q = 1, one call of 4 096
# trials took 15 % less time than eight of 512), narrow enough to bound a
# task's memory.
_GROUP_CHUNKS = 8
# Weighted trial-steps, n trials q^3 (a step's Cholesky and products are
# O(q^3)), that pay for one pool worker.  On a 2-core host, opening and
# closing a 2-process pool cost as much as 230-360 thousand q = 1 trial-steps
# (10-19 ms at 34-59 ns each; a q = 2 or 3 step costs 7-10 or 17-21 of them),
# so each worker gets 2^19, one and a half to two starts' worth.
_POOL_WORK = 1 << 19
# Steps whose radii and orientations the walk kernel draws at once: large
# enough to amortize the draw calls, small enough that the block stays in cache.
_STEP_BLOCK = 32
# Family-wise significance level of the KS normality check.
KS_ALPHA = 1e-3
# The time rule on a walk or sweep entry: a walk runs at most TRIAL_STEPS_CAP
# trial-steps (n is at most TRIAL_STEPS_CAP // trials) and a sweep at most as
# many draws (grid points times trials), 250 times the demo's largest walk.
TRIAL_STEPS_CAP = 10**10
# The largest lift dimension: every integer up to 2^53 is exact as a float.
P_CAP = 1 << 53

REGIMES = ("CLT_I", "CLT_II", "MIXED")


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk experiment, checked on construction.

    ``checks`` selects which comparisons feed the overall verdict, by their
    names in ``CHECKS``; ``stream_tag`` keys the random streams next to ``seed``.
    A bad field raises BadArity whose message starts with the field's name.
    """

    nu: RadialLaw
    n: int
    p: int
    trials: int
    regime: str
    seed: int = 0
    checks: tuple = field(default_factory=lambda: tuple(CHECKS))
    rel_tol: float = 0.05
    stream_tag: int = 0

    def __post_init__(self):
        if not isinstance(self.nu, RadialLaw):
            raise BadArity(f"nu: expected a RadialLaw, got {self.nu!r}")
        if self.regime not in REGIMES:
            raise BadArity(f"regime: must be one of {REGIMES}, got {self.regime!r}")
        for name in ("seed", "stream_tag"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0))
        object.__setattr__(self, "p", _dimension(self.p, "p", self.nu.q))
        object.__setattr__(self, "trials", _trials(self.trials, 100, 8 * self.nu.q ** 2))
        object.__setattr__(self, "n", _integer(self.n, "n", 1, TRIAL_STEPS_CAP // self.trials))
        checks = self.checks
        if not (isinstance(checks, (list, tuple)) and checks
                and all(isinstance(k, str) and k in CHECKS for k in checks)):
            raise BadArity(f"checks: expected a nonempty list of checks from {list(CHECKS)}, got {checks!r}")
        object.__setattr__(self, "checks", tuple(checks))
        object.__setattr__(self, "rel_tol", _real(self.rel_tol, "rel_tol"))
        if self.rel_tol <= 0:
            raise BadArity(f"rel_tol: must be > 0, got {self.rel_tol}")

    @property
    def scale(self) -> float:
        """Normalization applied to Xi_n: sqrt(p)/n for CLT I, 1/sqrt(n) otherwise."""
        if self.regime == "CLT_I":
            return sqrt(self.p) / self.n
        return 1.0 / sqrt(self.n)

    @property
    def limit_c(self) -> float:
        """Ratio entering the CLT II limit covariance Sigma + c T."""
        return 0.0 if self.regime == "CLT_II" else self.n / self.p


def _dimension(value, field: str, q: int) -> int:
    """A lift dimension from q to P_CAP; errors name the field."""
    return _integer(value, field, q, P_CAP)


@dataclass
class CovarianceEstimate:
    mean: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray


def trial_stream(seed: int, tag: int, chunk: int) -> np.random.Generator:
    """The random stream of one work unit, independent of scheduling.

    A PCG64 generator seeded by the SeedSequence of (seed, tag, chunk):
    distinct keys give independent streams, and PCG64 draws a double in
    about half the time of Philox.  The bit generator is named rather than
    taken from ``default_rng``, whose choice numpy may change.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(tag), int(chunk)))))


def _gram_chunk(nu: RadialLaw, n: int, p: int, m: int, *rngs: np.random.Generator):
    """m Gram-state trials; returns (xi, a) as (m, q, q) arrays, the kernel
    every experiment runs.  The cross part is b = xi - a.  Stream i of
    ``rngs`` draws trials [i CHUNK_TRIALS, (i + 1) CHUNK_TRIALS), the last
    stream the rest, so one stream draws all m.

    Only G = S'S is tracked.  Any factor L with L L' = G writes the walk as
    S = Q_S L' with Q_S a p x q orthonormal frame; take a fresh step as
    X = U r with U a uniform frame independent of S.  Then S'X = L W r with
    W = Q_S'U, which by orthogonal invariance has the law of the top q rows
    of a uniform frame, drawn by :func:`_stiefel_rows` in O(q^3) work
    whatever p is (at q = 1, the cosine of a uniform point on the sphere).
    So with c = L W r the Gram matrix updates as G <- G + c + c' + r r.
    L comes from :func:`chol_psd`, whose zero pivots give zero columns, so
    G = 0 at the first step and rank-deficient radii need no special case.

    Each q x q quantity is held trials-last, (q, q, m), so each entry is one
    vector op over the trials, for every q; at q = 1 a step is five ufunc
    calls.  W r and r r do not depend on the walk, so each block of
    ``_STEP_BLOCK`` steps draws, stream by stream, its radii, then its W, and
    writes 2 W r and r r in place, into the stream's slice of the two block
    buffers that the steps read, then adds its sum of r r - r2 to a at once;
    a step updates G's lower triangle in buffers whose entry views are built
    once.  W carries a factor 2, so c's diagonal is that of c + c', and its
    off-diagonal sums are halved (exact).  Mirroring G's lower triangle makes
    xi exactly symmetric; r r, so a, is too.
    """
    q = nu.q
    r2m = r2(nu)
    steps = min(n, _STEP_BLOCK)
    bounds = [i * CHUNK_TRIALS for i in range(len(rngs))] + [m]
    g, low, c, a = (np.zeros((q, q, m)) for _ in range(4))
    t = np.empty(m)
    wr, rr = (np.empty((q, q, steps, m)) for _ in range(2))
    gv, lv, cv = ([list(x) for x in buf] for buf in (g, low, c))
    pairs = [(i, j) for i in range(q) for j in range(q)]
    lower = [(i, j) for i, j in pairs if i >= j]

    def step_ops(s):  # step s after its Cholesky, as (ufunc, x, y, out) on entry views
        ops = []
        for i, j in pairs:  # c_ij = sum_{l <= i} L_il (2 W r)_lj, each term after the first through t
            ops.append((np.multiply, lv[i][0], wr[0, j, s], cv[i][j]))
            for l in range(1, i + 1):
                ops += [(np.multiply, lv[i][l], wr[l, j, s], t), (np.add, cv[i][j], t, cv[i][j])]
        for i, j in lower:  # G_ij takes c_ii, or the halved c_ij + c_ji, and (r r)_ij
            if i > j:
                ops += [(np.add, cv[i][j], cv[j][i], t), (np.multiply, t, 0.5, t)]
            ops += [(np.add, gv[i][j], t if i > j else cv[i][i], gv[i][j]), (np.add, gv[i][j], rr[i, j, s], gv[i][j])]
        return ops

    plan = [step_ops(s) for s in range(steps)]
    for start in range(0, n, _STEP_BLOCK):
        k = min(_STEP_BLOCK, n - start)
        for rng, lo, hi in zip(rngs, bounds, bounds[1:]):
            size = k * (hi - lo)
            radii = nu.draw_radii(size, rng).reshape(q, q, k, hi - lo)
            w = _stiefel_rows(p, q, q, size, rng)
            w *= 2.0
            np.einsum("ilsm,ljsm->ijsm", w.reshape(q, q, k, hi - lo), radii, out=wr[:, :, :k, lo:hi])  # 2 W r
            np.einsum("ilsm,ljsm->ijsm", radii, radii, out=rr[:, :, :k, lo:hi])  # X'X = r r (radii are symmetric)
        for ops in plan[:k]:
            chol_psd(gv, lv)
            for f, x, y, out in ops:
                f(x, y, out)
        rr[:, :, :k] -= r2m[..., None, None]
        a += rr[:, :, :k].sum(axis=2)
    for i, j in lower:
        g[j, i] = g[i, j]
    return g.transpose(2, 0, 1) - n * r2m, a.transpose(2, 0, 1)


def predict_covariances(nu: RadialLaw, n: int, p: int):
    """Exact finite-n covariances (cov_A, cov_B, cov_Xi) of the unnormalized parts."""
    cov_a = n * sigma_nu(nu)
    cov_b = (n * (n - 1) / p) * t_nu(nu)
    return cov_a, cov_b, cov_a + cov_b


def estimate_covariance(samples) -> CovarianceEstimate:
    """Sample mean, unbiased covariance, and per-entry jackknife standard errors.

    Leaving out centred row c_i gives the rank-one downdate
    S_(i) = (n-1)/(n-2) S - k c_i c_i' with k = n/((n-1)(n-2)), so with
    M = C'C/n the jackknife variance is (n-1)/n k^2 ((C*C)'(C*C) - n M*M)
    (Efron & Stein, Ann. Stat. 1981), clamped at 0: it can round below 0
    when |c_ia c_ib| is constant over i.  It works in units of the power of
    two just above max |x|, so no fourth power over- or underflows whatever
    the samples' scale, and the result is that of their own units to the bit.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    x = np.ldexp(x, -e)
    mean = x.mean(axis=0)
    xc = x - mean
    # einsum without ``optimize`` never calls BLAS, whose sums split by thread
    # count, so the same samples give the same bytes on every host
    gram = np.einsum("ni,nj->ij", xc, xc)
    cov = symmetrize(gram / (n - 1))
    var = np.full((d, d), np.inf)
    if n >= 3:
        k = n / ((n - 1) * (n - 2))
        sq, m = xc * xc, gram / n
        var = (n - 1) / n * k * k * (np.einsum("ni,nj->ij", sq, sq) - n * m * m)
    return CovarianceEstimate(mean=np.ldexp(mean, e), cov=np.ldexp(cov, 2 * e),
                              stderr=np.ldexp(np.sqrt(np.maximum(var, 0.0)), 2 * e))


def _plain(value):
    """``value`` with its arrays, at any depth of dicts, as nested lists, for JSON."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass
class ExperimentReport:
    """Self-contained record of one verified experiment: ``checks`` holds each
    entry of ``CHECKS`` by its name (see :func:`verify_clt`), ``max_abs_z_mean``
    the largest |z| of the mean against 0, which feeds no verdict.

    No wall time is recorded, so on one numpy build and CPU dispatch the
    embedded seed reproduces every byte, whatever the worker and BLAS thread
    counts.  Another dispatch (AVX-512 ``log``, ``expm1``, ``tan``) can move
    the last bits of the q = 1 cosine draws and of every number after them.
    """

    config: dict
    normalization: float
    predicted_exact: np.ndarray
    predicted_limit: np.ndarray
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    stderr: np.ndarray
    max_abs_z_mean: float
    checks: dict
    decided_by: list
    overall: str

    def to_dict(self) -> dict:
        return _plain(vars(self))


def _chunk_task(args):
    """Top-level runner of chunks [first, last) (picklable for process pools):
    one kernel call over their trials, each chunk drawing from its own stream."""
    cfg, first, last = args
    m = min(last * CHUNK_TRIALS, cfg.trials) - first * CHUNK_TRIALS
    streams = (trial_stream(cfg.seed, cfg.stream_tag, idx) for idx in range(first, last))
    xi, _ = _gram_chunk(cfg.nu, cfg.n, cfg.p, m, *streams)
    return xi.reshape(m, -1)


def _workers(value, name: str = "workers") -> int:
    """A walk's worker count, an integer from 1 to WORKERS_CAP; errors name ``name``."""
    return _integer(value, name, 1, WORKERS_CAP)


def _run_all_chunks(cfg: WalkConfig, workers: int = 1):
    """Run the chunks in contiguous, near-equal groups of at most
    ``_GROUP_CHUNKS``, whose number is a multiple of w, and merge them in
    chunk order: in this process at w = 1, else on a pool of w processes
    opened here and closed when its tasks are done.  w is workers, capped at
    the chunks (a fork pool starts all its workers at its first task) and at
    the entry's weighted trial-steps over ``_POOL_WORK``, so that each worker
    earns its start."""
    chunks = -(-cfg.trials // CHUNK_TRIALS)
    w = min(_workers(workers), chunks, max(1, cfg.n * cfg.trials * cfg.nu.q ** 3 // _POOL_WORK))
    groups = w * -(-chunks // (w * _GROUP_CHUNKS))
    bounds = [chunks * g // groups for g in range(groups + 1)]
    tasks = [(cfg, first, last) for first, last in zip(bounds, bounds[1:])]
    if w == 1:
        return np.concatenate(list(map(_chunk_task, tasks)), axis=0)
    from concurrent.futures import ProcessPoolExecutor  # here, so a run that opens no pool loads no multiprocessing
    with ProcessPoolExecutor(w) as pool:
        return np.concatenate(list(pool.map(_chunk_task, tasks)), axis=0)


def _compare_covariance(emp: np.ndarray, se: np.ndarray, pred: np.ndarray, rel_tol: float):
    """Entrywise band check against a predicted covariance.

    Band per entry is max(5 stderr, rel_tol * |pred entry|).  A prediction
    that is exactly zero (degenerate limit) is checked purely against the
    stderr band, and the returned error is then the absolute Frobenius norm
    of emp - pred, since no relative one exists.  The verdict degrades to
    INCONCLUSIVE when the stderr exceeds half the relative band at the
    matrix scale.  A non-finite estimate or stderr fails outright, since
    every comparison with NaN is false.
    """
    diff = emp - pred
    scale = float(np.abs(pred).max())
    rel_frob = frobenius_norm(diff) / frobenius_norm(pred) if scale > 0 else frobenius_norm(diff)
    if not (np.all(np.isfinite(emp)) and np.all(np.isfinite(se))):
        return "FAIL", rel_frob
    if scale == 0.0:
        verdict = "PASS" if np.all(np.abs(emp) <= 5.0 * se) else "FAIL"
        return verdict, rel_frob
    band = np.maximum(5.0 * se, rel_tol * np.abs(pred))
    if np.any(np.abs(diff) > band):
        return "FAIL", rel_frob
    if float(se.max()) > rel_tol * scale / 2.0:
        return "INCONCLUSIVE", rel_frob
    return "PASS", rel_frob


def _ks_statistic(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the empirical CDF of
    ``z`` and the standard normal CDF."""
    x = np.sort(z)
    n = x.size
    f = 0.5 * np.fromiter(map(erfc, (x * -sqrt(0.5)).tolist()), float, n)
    i = np.arange(1.0, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def _smirnov_isf(n: int, a: float) -> float:
    """The d with P(D+_n >= d) = a, for the one-sided KS statistic of n draws.

    P is the exact Birnbaum-Tingey (1951) sum

        P(D+_n >= d) = d sum_{0 <= j < n(1-d)} C(n,j) (1-d-j/n)^(n-j) (d+j/n)^(j-1),

    evaluated in log space; the Illinois method finds the root of log P - log a.
    It starts at sqrt(-log a / (2n)), where P <= a by Massart's one-sided
    bound, which needs sqrt(-log a / (2n)) < 1 - 1/n (every n >= 100 with
    a > 1e-80).
    """
    j = np.arange(n + 1.0)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1) / j[1:]))))
    target = log(a)

    def excess(d):
        rest = (1.0 - d) - j / n
        m = int(np.count_nonzero(rest > 0))  # the terms j < n(1-d); the rest vanish
        k = j[:m]
        t = log_binom[:m] + (n - k) * np.log(rest[:m]) + (k - 1) * np.log(d + k / n)
        top = t.max()
        return log(d) + top + log(np.exp(t - top).sum()) - target

    hi = sqrt(-target / (2 * n))
    g_hi = excess(hi)
    # Smirnov's expansion puts the root near hi - 1/(6n); step down from there until it is bracketed
    step = 1.0 / (6 * n)
    lo = hi - step
    g_lo = excess(lo)
    while g_lo < 0:
        hi, g_hi = lo, g_lo
        step *= 2
        lo = max(hi - step, hi / 2)
        g_lo = excess(lo)
    side = 0
    for _ in range(60):
        d = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        g = excess(d)
        if abs(g) < 1e-12 or hi - lo <= 1e-15 * hi:
            return d
        # Illinois: halve the value kept at an end that two steps in a row left in place
        if g < 0:
            hi, g_hi = d, g
            g_lo = g_lo / 2 if side < 0 else g_lo
            side = -1
        else:
            lo, g_lo = d, g
            g_hi = g_hi / 2 if side > 0 else g_hi
            side = 1
    return d


def _ks_projections(samples: np.ndarray, q: int, alpha: float):
    """KS distance to the standard normal of each standardized coordinate.

    For q >= 2 only upper-triangle coordinates are tested (the statistic is
    symmetric, so the rest duplicate); the significance level is split
    across the k projections.  The statistic is the two-sided distance
    (:func:`_ks_statistic`).  The critical value is the exact one-sided
    Smirnov quantile at tail alpha / (2k) (:func:`_smirnov_isf`): doubling
    the one-sided tail gives the two-sided one up to O(alpha^4) (Simard &
    L'Ecuyer, J. Stat. Softw. 2011).
    """
    coords = [(i, j) for i in range(q) for j in range(i, q)]
    n = samples.shape[0]
    per_projection = []
    for i, j in coords:
        col = samples[:, i * q + j]
        sd = col.std(ddof=1)
        if sd == 0.0:
            return None, None, None
        z = (col - col.mean()) / sd
        per_projection.append(_ks_statistic(z))
    critical = _smirnov_isf(n, alpha / len(coords) / 2)
    return max(per_projection), critical, per_projection


def _check_exact(samples, est, predicted, cfg) -> dict:
    """The covariance band against the exact finite-n prediction, and each entry's z-score."""
    verdict, rel = _compare_covariance(est.cov, est.stderr, predicted["exact"], cfg.rel_tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (est.cov - predicted["exact"]) / est.stderr
    z[np.isnan(z)] = 0.0
    return {"verdict": verdict, "rel_frob_err": rel, "z_scores": z}


def _check_limit(samples, est, predicted, cfg) -> dict:
    """The covariance band against the regime's limit."""
    verdict, rel = _compare_covariance(est.cov, est.stderr, predicted["limit"], cfg.rel_tol)
    return {"verdict": verdict, "rel_frob_err": rel}


def _check_ks(samples, est, predicted, cfg) -> dict:
    """KS normality of the projections at level ``KS_ALPHA``, SKIPPED when the
    limit is a point mass or a projection is constant."""
    stat = critical = per_projection = None
    if float(np.abs(predicted["limit"]).max()) != 0.0:
        stat, critical, per_projection = _ks_projections(samples, cfg.nu.q, KS_ALPHA)
    verdict = "SKIPPED" if stat is None else ("PASS" if stat < critical else "FAIL")
    return {"verdict": verdict, "stat": stat, "critical": critical, "per_projection": per_projection}


# Each check a walk experiment can request, by its manifest name:
# fn(normalized samples, their CovarianceEstimate, predictions by name, cfg) -> {"verdict": ..., statistics}
CHECKS = {"exact": _check_exact, "limit": _check_limit, "ks": _check_ks}


def judge(checks: dict, requested, floor: str | None = None):
    """``(overall, decided_by)`` of an entry, the one verdict rule of every kind:
    FAIL if a ``requested`` entry of ``checks`` fails, else INCONCLUSIVE if one is
    INCONCLUSIVE or SKIPPED or ``floor``, the name of a floor not met, is given,
    else PASS.  ``decided_by`` names the requested checks that set it, or the floor."""
    failed = [name for name in requested if checks[name]["verdict"] == "FAIL"]
    if failed:
        return "FAIL", failed
    inconclusive = [name for name in requested if checks[name]["verdict"] in ("INCONCLUSIVE", "SKIPPED")]
    if inconclusive or floor:
        return "INCONCLUSIVE", inconclusive or [floor]
    return "PASS", list(requested)


def verify_clt(cfg: WalkConfig, workers: int = 1) -> ExperimentReport:
    """Run the configured experiment, then every entry of ``CHECKS`` on the
    normalized statistic, each reported under its name.

    The chunks run on up to ``workers`` processes (1 to ``WORKERS_CAP``, else
    BadArity naming ``workers`` before any starts), with the same report at
    every count.  :func:`judge` folds the checks in ``cfg.checks``, with the
    floor ``"trials"`` under 1 000 trials, into ``overall`` and ``decided_by``.
    """
    q = cfg.nu.q
    scale = cfg.scale
    samples = scale * _run_all_chunks(cfg, workers)
    est = estimate_covariance(samples)
    _, _, cov_xi = predict_covariances(cfg.nu, cfg.n, cfg.p)
    limit = t_nu(cfg.nu) if cfg.regime == "CLT_I" else sigma_nu(cfg.nu) + cfg.limit_c * t_nu(cfg.nu)
    predicted = {"exact": scale * scale * cov_xi, "limit": limit}
    checks = {name: check(samples, est, predicted, cfg) for name, check in CHECKS.items()}

    upper = [i * q + j for i in range(q) for j in range(i, q)]
    with np.errstate(divide="ignore", invalid="ignore"):
        # E[Xi_n] = 0 exactly: the mean's z per upper-triangle coordinate, reported only
        z_mean = est.mean[upper] / np.sqrt(est.cov.diagonal()[upper] / cfg.trials)
    z_mean[np.isnan(z_mean)] = 0.0

    # noise-dominated bands below 10^3 trials give no PASS
    overall, decided_by = judge(checks, cfg.checks, "trials" if cfg.trials < 1000 else None)

    # every field but the law object, so a new WalkConfig field is echoed too
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "nu"}
    config_echo.update(law=cfg.nu.to_config(), q=q, c=cfg.limit_c, checks=list(cfg.checks), ks_alpha=KS_ALPHA)
    return ExperimentReport(
        config=config_echo, normalization=scale, predicted_exact=predicted["exact"], predicted_limit=limit,
        empirical_mean=est.mean, empirical_cov=est.cov, stderr=est.stderr,
        max_abs_z_mean=float(np.abs(z_mean).max()), checks=checks, decided_by=decided_by, overall=overall,
    )


@dataclass(frozen=True)
class MomentSweep:
    """Parameters of one monomial-moment sweep, checked on construction: the
    rules of :func:`radial_moment_mc` at the smallest grid point, no column
    of kappa that every radius leaves 0, distinct grid points, 3 of them for
    a slope, and the time rule.
    ``kappa`` is stored as sorted ((row, col), exponent) pairs; a bad field
    raises BadArity whose message starts with its name."""

    nu: RadialLaw
    kappa: tuple
    p_grid: tuple
    trials: int

    def __post_init__(self):
        if not isinstance(self.nu, RadialLaw):
            raise BadArity(f"nu: expected a RadialLaw, got {self.nu!r}")
        if not isinstance(self.p_grid, (list, tuple)) or not self.p_grid:
            raise BadArity(f"p_grid: expected a nonempty list, got {self.p_grid!r}")
        grid = tuple(_dimension(p, f"p_grid[{k}]", self.nu.q) for k, p in enumerate(self.p_grid))
        first = {}
        for k, p in enumerate(grid):
            if first.setdefault(p, k) != k:
                raise BadArity(f"p_grid[{k}]: repeats p_grid[{first[p]}] = {p}; grid points must be distinct")
        kappa = _monomial_rules(self.kappa, min(grid), self.nu.q, self.trials)
        if len(grid) * self.trials > TRIAL_STEPS_CAP:
            raise BadArity(f"p_grid: {len(grid)} grid points of {self.trials} trials exceed the cap "
                           f"of {TRIAL_STEPS_CAP} trial-steps on an entry")
        # X = U r, so column j of X is 0 when column j of every radius is,
        # and the moment is then 0 at every p: no slope, no z-score
        norms = r2(self.nu).diagonal()
        for _, j in kappa:
            if norms[j] == 0:
                raise BadArity(f"kappa: column {j} of every radius is 0, so the moment is 0 at every p")
        if kappa_all_rows_even(kappa) and len(grid) < 3:
            raise BadArity(f"p_grid: decay slope needs at least 3 points, got {len(grid)}")
        object.__setattr__(self, "kappa", tuple(kappa.items()))
        object.__setattr__(self, "p_grid", grid)
        object.__setattr__(self, "trials", int(self.trials))


@dataclass
class MomentDecayReport:
    """A log-log decay fit (all row sums even) or a parity z-score sweep, and its verdict."""

    branch: str  # "decay" or "parity"
    p_grid: list
    estimates: list
    stderrs: list
    weight: int
    slope: float | None = None
    slope_stderr: float | None = None
    intercept: float | None = None
    max_abs_z: float | None = None
    checks: dict | None = None
    decided_by: list | None = None
    overall: str | None = None

    to_dict = ExperimentReport.to_dict


def _moment_checks(report: MomentDecayReport) -> dict:
    """The sweep's one check, under its branch's name: parity passes when the
    largest |z| is under 4, decay when the slope lies within 0.5 of -weight/2."""
    passed = report.max_abs_z < 4.0 if report.branch == "parity" else abs(report.slope + report.weight / 2) <= 0.5
    return {report.branch: {"verdict": "PASS" if passed else "FAIL"}}


def moment_decay_experiment(sweep: MomentSweep, rng: np.random.Generator) -> MomentDecayReport:
    """Estimate the monomial moment across the sweep's dimension grid and
    either fit its log-log decay slope (even branch) or report parity
    z-scores (odd), and judge it by :func:`judge`."""
    even = kappa_all_rows_even(sweep.kappa)
    ests, ses = map(list, zip(*(radial_moment_mc(p, sweep.nu, sweep.kappa, sweep.trials, rng) for p in sweep.p_grid)))
    report = MomentDecayReport(
        branch="decay" if even else "parity",
        p_grid=list(sweep.p_grid), estimates=ests, stderrs=ses, weight=sum(e for _, e in sweep.kappa),
    )
    if even:
        logs = np.log(np.abs(ests))
        coef, cov = np.polyfit(np.log(sweep.p_grid), logs, 1, cov=True)
        report.slope = float(coef[0])
        report.intercept = float(coef[1])
        report.slope_stderr = float(np.sqrt(cov[0, 0]))
    else:
        zs = [abs(e) / s if s > 0 else np.inf for e, s in zip(ests, ses)]
        report.max_abs_z = float(max(zs))
    report.checks = _moment_checks(report)
    report.overall, report.decided_by = judge(report.checks, report.checks)
    return report
