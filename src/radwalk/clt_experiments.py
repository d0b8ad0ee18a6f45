"""Simulate the radial walks, decompose the centered squared-radius
statistic into its per-step and cross-term parts, predict exact finite-n
covariances, estimate empirical ones, and render pass/fail verdicts.

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
runs that chain (:func:`_gram_chunk`), at a cost per step that does not
depend on p.  The direct kernel (:func:`_walk_chunk`) materializes the
p x q walk; no experiment runs it, and it stays as the oracle the tests
compare the chain against.

Trials are split into fixed-size chunks; each chunk owns a counter-based
random stream keyed by (seed, stream tag, chunk index), so results are
bit-identical for a fixed seed regardless of how chunks are scheduled
across the workers of a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import erfc, log, sqrt

import numpy as np

from .errors import BadArity, TooFewSamples
from .matrix_core import chol_psd, frobenius_norm
from .radial_measures import (
    RadialLaw,
    _orbit_batch,
    _stiefel_rows,
    kappa_all_rows_even,
    kappa_weight,
    r2,
    radial_moment_mc,
    sigma_nu,
    t_nu,
    uniform_sphere_cosine,
)

__all__ = [
    "CHUNK_TRIALS",
    "KS_ALPHA",
    "REGIMES",
    "WalkConfig",
    "CovarianceEstimate",
    "ExperimentReport",
    "MomentDecayReport",
    "trial_stream",
    "predict_covariances",
    "estimate_covariance",
    "verify_clt",
    "moment_decay_experiment",
]

# Fixed work-unit size: chunk k of an experiment always covers trials
# [k*CHUNK_TRIALS, ...), whatever the worker count.
CHUNK_TRIALS = 512
# Steps whose radii and cosines the q = 1 kernel draws at once: large enough
# to amortize the draw calls, small enough that the block stays in cache.
_STEP_BLOCK = 32
# Family-wise significance level of the KS normality check.
KS_ALPHA = 1e-3

REGIMES = ("CLT_I", "CLT_II", "MIXED")


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk experiment."""

    nu: RadialLaw
    n: int
    p: int
    trials: int
    regime: str
    c: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise BadArity(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.p < self.nu.q:
            raise BadArity(f"need p >= q, got p={self.p}, q={self.nu.q}")
        if self.trials < 100:
            raise BadArity(f"need trials >= 100, got {self.trials}")
        if self.seed < 0:
            raise BadArity("seed must be nonnegative")

    @property
    def scale(self) -> float:
        """Normalization applied to Xi_n: sqrt(p)/n for CLT I, 1/sqrt(n) otherwise."""
        if self.regime == "CLT_I":
            return sqrt(self.p) / self.n
        return 1.0 / sqrt(self.n)

    @property
    def limit_c(self) -> float:
        """Ratio entering the CLT II limit covariance Sigma + c T."""
        if self.c is not None:
            return float(self.c)
        return 0.0 if self.regime == "CLT_II" else self.n / self.p


@dataclass
class CovarianceEstimate:
    mean: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray


def trial_stream(seed: int, tag: int, chunk: int) -> np.random.Generator:
    """Counter-based stream for one work unit, independent of scheduling."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(tag), int(chunk)))))


def _sym_batch(m: np.ndarray) -> np.ndarray:
    return (m + m.transpose(0, 2, 1)) / 2.0


def _walk_chunk(nu: RadialLaw, n: int, p: int, m: int, rng: np.random.Generator):
    """m direct-path trials; returns (xi, a) as (m, q, q) arrays.

    The full (m, p, q) walk is kept, so this costs O(n p q) per trial.  No
    experiment runs it: it is the oracle the tests check :func:`_gram_chunk`
    against.
    """
    q = nu.q
    r2m = r2(nu)
    s = np.zeros((m, p, q))
    a = np.zeros((m, q, q))
    for _ in range(n):
        radii = nu.draw_radii(m, rng)
        x = _orbit_batch(p, radii, rng)
        s += x
        # x'x rather than r r: keeps the frames' orthonormality under test
        a += x.transpose(0, 2, 1) @ x - r2m
    xi = _sym_batch(s.transpose(0, 2, 1) @ s - n * r2m)
    return xi, _sym_batch(a)


def _gram_chunk(nu: RadialLaw, n: int, p: int, m: int, rng: np.random.Generator):
    """m Gram-state trials; returns (xi, a) as (m, q, q) arrays, the kernel
    every experiment runs.  The cross part is b = xi - a.

    Only G = S'S is tracked.  Any factor L with L L' = G writes the walk as
    S = Q_S L' with Q_S a p x q orthonormal frame; take a fresh step as
    X = U r with U a uniform frame independent of S.  Then S'X = L (Q_S'U) r,
    and by orthogonal invariance Q_S'U has the law of the top q rows of a
    uniform frame, which :func:`_stiefel_rows` draws in O(q^3) work whatever
    p is.  So with c = L W r the Gram matrix updates as

        G <- G + c + c' + r r.

    L comes from :func:`chol_psd`, whose zero pivots give zero columns, so
    G = 0 at the first step and rank-deficient radii need no special case.

    For q = 1 the same recursion runs on scalars, g <- g + 2 sqrt(g) r u + r^2,
    where u is the cosine between the walk and the step, drawn by
    :func:`uniform_sphere_cosine`.  Radii and then cosines are drawn for
    ``_STEP_BLOCK`` steps at a time as (steps, m) blocks, so a step costs a
    few (m,) ufuncs and no draw call; the block's sum of r^2 - r2 is added
    to a at once.
    """
    q = nu.q
    r2m = r2(nu)
    if q == 1:
        r2s = float(r2m[0, 0])
        g = np.zeros(m)
        a = np.zeros(m)
        cross = np.empty(m)
        for start in range(0, n, _STEP_BLOCK):
            k = min(_STEP_BLOCK, n - start)
            r = nu.draw_radii(k * m, rng).reshape(k, m)
            ru2 = uniform_sphere_cosine(p, k * m, rng).reshape(k, m)
            ru2 *= r
            ru2 *= 2.0
            rr = r * r
            for j in range(k):
                # at p = 1, u = -1 can cancel g to a rounding error below zero
                np.maximum(g, 0.0, out=cross)
                np.sqrt(cross, out=cross)
                cross *= ru2[j]
                g += cross
                g += rr[j]
            rr -= r2s
            a += rr.sum(axis=0)
        return (g - n * r2s).reshape(m, 1, 1), a.reshape(m, 1, 1)
    g = np.zeros((m, q, q))
    a = np.zeros((m, q, q))
    for _ in range(n):
        radii = nu.draw_radii(m, rng)
        c = chol_psd(g) @ _stiefel_rows(p, q, q, m, rng) @ radii
        cross = c + c.transpose(0, 2, 1)
        rr = radii @ radii  # X'X = r'U'U r, and radii are symmetric
        g = g + cross + rr
        a += rr - r2m
    return _sym_batch(g - n * r2m), _sym_batch(a)


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
    when |c_ia c_ib| is constant over i.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    mean = x.mean(axis=0)
    xc = x - mean
    gram = xc.T @ xc
    cov = gram / (n - 1)
    cov = (cov + cov.T) / 2.0
    if n < 3:
        return CovarianceEstimate(mean=mean, cov=cov, stderr=np.full((d, d), np.inf))
    k = n / ((n - 1) * (n - 2))
    sq, m = xc * xc, gram / n
    var = (n - 1) / n * k * k * (sq.T @ sq - n * m * m)
    return CovarianceEstimate(mean=mean, cov=cov, stderr=np.sqrt(np.maximum(var, 0.0)))


def _fields_dict(report) -> dict:
    """A report's fields by name, arrays as nested lists, for JSON."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in out.items()}


@dataclass
class ExperimentReport:
    """Self-contained record of one verified experiment.

    Re-running with the embedded seed reproduces every numeric field, and
    no wall time is recorded, so serialized reports stay byte-stable across
    runs and worker counts.
    """

    config: dict
    normalization: float
    predicted_exact: np.ndarray
    predicted_limit: np.ndarray
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    stderr: np.ndarray
    rel_frob_err_exact: float
    rel_frob_err_limit: float
    z_scores_exact: np.ndarray
    ks_stat: float | None
    ks_critical: float | None
    ks_per_projection: list | None
    verdicts: dict
    overall: str

    def to_dict(self) -> dict:
        return _fields_dict(self)


def _chunk_task(args):
    """Top-level chunk runner (picklable for process pools)."""
    cfg, tag, chunk_idx, size = args
    xi, _ = _gram_chunk(cfg.nu, cfg.n, cfg.p, size, trial_stream(cfg.seed, tag, chunk_idx))
    return xi.reshape(size, -1)


def _run_all_chunks(cfg: WalkConfig, tag: int, pool):
    """Run every chunk, on ``pool`` when given and there are several; both
    maps return results in chunk order."""
    tasks = [(cfg, tag, idx, min(CHUNK_TRIALS, cfg.trials - start))
             for idx, start in enumerate(range(0, cfg.trials, CHUNK_TRIALS))]
    run = pool.map if pool is not None and len(tasks) > 1 else map
    return np.concatenate(list(run(_chunk_task, tasks)), axis=0)


def _compare_covariance(emp: np.ndarray, se: np.ndarray, pred: np.ndarray, rel_tol: float):
    """Entrywise band check against a predicted covariance.

    Band per entry is max(5 stderr, rel_tol * |pred entry|).  A prediction
    that is exactly zero (degenerate limit) is checked purely against the
    stderr band.  The verdict degrades to INCONCLUSIVE when the stderr
    exceeds half the relative band at the matrix scale.  A non-finite
    estimate or stderr fails outright, since every comparison with NaN is
    false.
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


def verify_clt(cfg: WalkConfig, pool=None, stream_tag: int = 0, checks=("exact", "limit", "ks"),
               rel_tol: float = 0.05) -> ExperimentReport:
    """Run the configured experiment and compare the empirical covariance of
    the normalized statistic against the exact finite-n prediction and the
    asymptotic limit, with a KS normality check on scalar projections at
    level ``KS_ALPHA``.

    ``pool`` is an executor (such as a ``ProcessPoolExecutor``) that runs the
    trial chunks; without one they run in this process.  ``checks`` selects
    which comparisons feed the overall verdict; every comparison is still
    computed and reported.
    """
    q = cfg.nu.q
    xi_vecs = _run_all_chunks(cfg, stream_tag, pool)
    scale = cfg.scale
    samples = scale * xi_vecs
    est = estimate_covariance(samples)

    _, _, cov_xi = predict_covariances(cfg.nu, cfg.n, cfg.p)
    predicted_exact = scale * scale * cov_xi
    if cfg.regime == "CLT_I":
        predicted_limit = t_nu(cfg.nu)
    else:
        predicted_limit = sigma_nu(cfg.nu) + cfg.limit_c * t_nu(cfg.nu)

    verdict_exact, rel_exact = _compare_covariance(est.cov, est.stderr, predicted_exact, rel_tol)
    verdict_limit, rel_limit = _compare_covariance(est.cov, est.stderr, predicted_limit, rel_tol)

    degenerate = float(np.abs(predicted_limit).max()) == 0.0
    if degenerate:
        ks_stat = ks_crit = ks_all = None
        verdict_ks = "SKIPPED"
    else:
        ks_stat, ks_crit, ks_all = _ks_projections(samples, q, KS_ALPHA)
        verdict_ks = "SKIPPED" if ks_stat is None else ("PASS" if ks_stat < ks_crit else "FAIL")

    with np.errstate(divide="ignore", invalid="ignore"):
        z = (est.cov - predicted_exact) / est.stderr
    z[np.isnan(z)] = 0.0

    verdicts = {
        "exact_covariance": verdict_exact,
        "limit_covariance": verdict_limit,
        "ks_normality": verdict_ks,
    }
    requested = [verdicts[{"exact": "exact_covariance", "limit": "limit_covariance", "ks": "ks_normality"}[c]]
                 for c in checks]
    if any(v == "FAIL" for v in requested):
        overall = "FAIL"
    elif any(v == "INCONCLUSIVE" for v in requested) or cfg.trials < 1000:
        # below 10^3 trials the bands are noise-dominated, so no PASS verdict
        overall = "INCONCLUSIVE"
    else:
        overall = "PASS"

    config_echo = {
        "law": cfg.nu.to_config(),
        "n": cfg.n,
        "p": cfg.p,
        "q": q,
        "trials": cfg.trials,
        "regime": cfg.regime,
        "c": cfg.limit_c,
        "seed": cfg.seed,
        "stream_tag": stream_tag,
        "checks": list(checks),
        "rel_tol": rel_tol,
        "ks_alpha": KS_ALPHA,
    }
    return ExperimentReport(
        config=config_echo,
        normalization=scale,
        predicted_exact=predicted_exact,
        predicted_limit=predicted_limit,
        empirical_mean=est.mean,
        empirical_cov=est.cov,
        stderr=est.stderr,
        rel_frob_err_exact=rel_exact,
        rel_frob_err_limit=rel_limit,
        z_scores_exact=z,
        ks_stat=ks_stat,
        ks_critical=ks_crit,
        ks_per_projection=ks_all,
        verdicts=verdicts,
        overall=overall,
    )


@dataclass
class MomentDecayReport:
    """Either a log-log decay fit (all row sums even) or a parity z-score sweep."""

    branch: str  # "decay" or "parity"
    p_grid: list
    estimates: list
    stderrs: list
    weight: int
    slope: float | None = None
    slope_stderr: float | None = None
    intercept: float | None = None
    max_abs_z: float | None = None

    def to_dict(self) -> dict:
        return _fields_dict(self)


def moment_decay_experiment(nu: RadialLaw, kappa, p_grid, trials: int,
                            rng: np.random.Generator) -> MomentDecayReport:
    """Estimate the monomial moment across a dimension grid and either fit
    its log-log decay slope (even branch) or report parity z-scores (odd)."""
    p_grid = [int(p) for p in p_grid]
    even = kappa_all_rows_even(kappa)
    if even and len(p_grid) < 3:
        raise BadArity("decay slope needs at least 3 grid points")
    ests, ses = [], []
    for p in p_grid:
        est, se = radial_moment_mc(p, nu, kappa, trials, rng)
        ests.append(est)
        ses.append(se)
    report = MomentDecayReport(
        branch="decay" if even else "parity",
        p_grid=p_grid, estimates=ests, stderrs=ses, weight=kappa_weight(kappa),
    )
    if even:
        logs = np.log(np.abs(ests))
        coef, cov = np.polyfit(np.log(p_grid), logs, 1, cov=True)
        report.slope = float(coef[0])
        report.intercept = float(coef[1])
        report.slope_stderr = float(np.sqrt(cov[0, 0]))
    else:
        zs = [abs(e) / s if s > 0 else np.inf for e, s in zip(ests, ses)]
        report.max_abs_z = float(max(zs))
    return report
