"""Batch front-end: parse experiment manifests, orchestrate seeded runs,
and emit machine-readable reports.

Manifests are JSON: a suite name, a master seed, and a list of entries.
Each entry has a unique ``id``, which names its report file and so must be
a plain file name, and a ``kind``:

* ``clt`` -- a walk experiment: ``regime`` (CLT_I | CLT_II | MIXED), ``n``,
  ``p``, ``trials``, ``law``, optional ``c`` (>= 0), ``checks`` (a list,
  subset of ["exact", "limit", "ks"]) and ``rel_tol`` (> 0).  The walk
  tracks only its q x q Gram matrix, so its cost does not depend on p.
* ``moments`` -- a monomial-moment sweep: ``law``, ``kappa`` (list of
  ``[[row, col], exponent]``, total exponent 1 to 8, every index inside the
  smallest grid point by q), ``p_grid`` (integers >= q), ``trials``
  (>= 1000).
* ``selftest`` -- the exact-identity suites, optional ``cases``.

Laws are ``{"q": q, "atoms": [{"weight": w, "radius": [row-major]}]}`` or
``{"family": name, "params": {...}}`` with families ``point_mass``,
``two_point``, ``uniform_interval``.

Every entry is validated before the first one runs, so a bad manifest
exits with code 2 and a message naming the field, with nothing written; a
field its kind does not take is an error too.
``radwalk moments`` turns its flags into a moments entry and applies the
same rules.  ``--seed`` must be an integer >= 0, and ``--workers`` (or
``RADWALK_WORKERS``, which takes precedence) an integer >= 1.

One process pool of that many workers serves every walk entry of a run.
Every output file embeds the tool version, the master seed, and a SHA-256
hash of the manifest.  Outputs are byte-identical for a fixed (manifest,
seed, version) whatever the worker count: random streams attach to fixed
work units, results merge in trial order, and no wall time is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import reduce
from math import factorial
from pathlib import Path

import numpy as np

from . import __version__
from .clt_experiments import (
    WalkConfig,
    moment_decay_experiment,
    trial_stream,
    verify_clt,
)
from .combinatorics import kron_multinomial_expand
from .errors import RadwalkError
from .gaussian_moments import MatrixNormalSpec, moment_tensor, sum_moment, wick_moment
from .kron_algebra import PermMat, hadamard, kron, reorder_perm
from .radial_measures import RadialLaw, _real, kappa_all_rows_even, normalize_kappa

ENV_WORKERS = "RADWALK_WORKERS"
ENV_SKEW_KRON = "RADWALK_SELFTEST_SKEW_KRON"
DEFAULT_SELFTEST_SEED = 20240811

CSV_COLUMNS = ("id", "regime", "n", "p", "q", "predicted_var", "empirical_var",
               "stderr", "rel_frob_err", "ks_stat", "verdict")
CHECKS = ("exact", "limit", "ks")
# the fields each entry kind takes; any other key is a config error
_FIELDS = {
    "clt": {"id", "kind", "regime", "n", "p", "trials", "law", "c", "checks", "rel_tol"},
    "moments": {"id", "kind", "law", "kappa", "p_grid", "trials"},
    "selftest": {"id", "kind", "cases"},
}
# an entry id names its report file, so it must stay a plain file name
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class ManifestError(Exception):
    """Configuration error; the message names the offending field."""


def _fmt(x) -> str:
    """Round-trip-exact decimal text for a 64-bit real."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _entry_tag(entry_id: str) -> int:
    return int.from_bytes(hashlib.sha256(entry_id.encode()).digest()[:8], "big")


def _require(mapping, key, prefix):
    if key not in mapping:
        raise ManifestError(f"{prefix}{key}: missing")
    return mapping[key]


def _as_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ManifestError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ManifestError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_nonnegative(value, path, positive=False):
    """A finite JSON number that is >= 0, or > 0 when ``positive``."""
    try:
        value = _real(value, path)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    if value < 0 or (positive and value == 0):
        raise ManifestError(f"{path}: must be {'> 0' if positive else '>= 0'}, got {value}")
    return value


def _parse_law(cfg, path):
    if not isinstance(cfg, dict):
        raise ManifestError(f"{path}: expected an object")
    try:
        return RadialLaw.from_config(cfg)
    except (RadwalkError, ValueError, KeyError, TypeError) as exc:
        named = str(exc).startswith(("q:", "params.", "atoms["))  # the message starts with its field
        raise ManifestError(f"{path}.{exc}" if named else f"{path}: {exc}") from exc


def _parse_kappa(spec, path):
    try:
        return [((_as_int(ij[0], path), _as_int(ij[1], path)), _as_int(e, path)) for ij, e in spec]
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ManifestError(f"{path}: expected a list of [[row, col], exponent] items ({exc})") from exc


def _decode(text, field):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{field}: invalid JSON: {exc}") from exc


def _read_json(path, field):
    """The decoded JSON file at ``path`` and its raw bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ManifestError(f"{field}: cannot read {path}: {exc}") from exc
    return _decode(raw, field), raw


def load_manifest(path):
    doc, raw = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ManifestError("manifest: top level must be an object")
    doc.setdefault("suite", "suite")
    doc.setdefault("seed", 0)
    _as_int(doc["seed"], "seed", minimum=0)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ManifestError("entries: expected a list")
    seen = set()
    for i, entry in enumerate(entries):
        path_i = f"entries[{i}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{path_i}: expected an object")
        eid = _require(entry, "id", f"{path_i}.")
        if not isinstance(eid, str) or not _ID_PATTERN.fullmatch(eid):
            raise ManifestError(f"{path_i}.id: expected a file name of letters, digits, '_', '.' "
                                f"and '-' that starts with a letter or digit, got {eid!r}")
        if eid in seen:
            raise ManifestError(f"{path_i}.id: duplicate id {eid!r}")
        seen.add(eid)
        kind = entry.setdefault("kind", "clt")
        if kind not in _FIELDS:
            raise ManifestError(f"{path_i}.kind: unknown kind {kind!r}")
        for key in entry:
            if key not in _FIELDS[kind]:
                raise ManifestError(f"{path_i}.{key}: unknown field")
    return doc, hashlib.sha256(raw).hexdigest()


def _build_walk_config(entry, path, master_seed):
    law = _parse_law(_require(entry, "law", f"{path}."), f"{path}.law")
    regime = _require(entry, "regime", f"{path}.")
    n = _as_int(_require(entry, "n", f"{path}."), f"{path}.n", minimum=1)
    p = _as_int(_require(entry, "p", f"{path}."), f"{path}.p", minimum=1)
    trials = _as_int(_require(entry, "trials", f"{path}."), f"{path}.trials", minimum=100)
    c = entry.get("c")
    if c is not None:
        c = _as_nonnegative(c, f"{path}.c")
    checks = entry.get("checks", list(CHECKS))
    if not isinstance(checks, list) or any(chk not in CHECKS for chk in checks):
        raise ManifestError(f"{path}.checks: expected a list of checks from {list(CHECKS)}, got {checks!r}")
    rel_tol = _as_nonnegative(entry.get("rel_tol", 0.05), f"{path}.rel_tol", positive=True)
    try:
        cfg = WalkConfig(nu=law, n=n, p=p, trials=trials, regime=regime, c=c, seed=master_seed)
    except RadwalkError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    return cfg, tuple(checks), rel_tol


def _meta(master_seed, config_hash):
    return {"tool": "radwalk", "version": __version__,
            "master_seed": master_seed, "config_sha256": config_hash}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary_scalar(matrix: np.ndarray, q: int) -> float:
    m = np.asarray(matrix)
    return float(m[0, 0]) if q == 1 else float(np.linalg.norm(m))


def _parse_moments_entry(entry, prefix=""):
    """Validate a moments sweep into the arguments its runner takes;
    ``prefix`` is the entry path plus a dot in a manifest, empty on the
    command line."""
    law = _parse_law(_require(entry, "law", prefix), f"{prefix}law")
    q = law.q
    kappa = _parse_kappa(_require(entry, "kappa", prefix), f"{prefix}kappa")
    p_grid = _require(entry, "p_grid", prefix)
    trials = _require(entry, "trials", prefix)
    if not isinstance(p_grid, list) or not p_grid:
        raise ManifestError(f"{prefix}p_grid: expected a nonempty list")
    for k, p in enumerate(p_grid):
        _as_int(p, f"{prefix}p_grid[{k}]", minimum=max(1, q))
    _as_int(trials, f"{prefix}trials", minimum=1000)
    try:
        kap = normalize_kappa(kappa)
    except RadwalkError as exc:
        raise ManifestError(f"{prefix}kappa: {exc}") from exc
    if not 1 <= sum(kap.values()) <= 8:
        raise ManifestError(f"{prefix}kappa: total exponent must be 1 to 8, got {sum(kap.values())}")
    for i, j in kap:
        if i >= min(p_grid) or j >= q:
            raise ManifestError(f"{prefix}kappa: index ({i},{j}) lies outside {min(p_grid)}x{q}, "
                                f"the smallest p_grid point by q")
    if kappa_all_rows_even(kap) and len(p_grid) < 3:
        raise ManifestError(f"{prefix}p_grid: decay slope needs at least 3 points")
    return law, kappa, p_grid, trials


def _parse_entry(entry, path, master_seed):
    """Validate one entry into the arguments its runner takes."""
    if entry["kind"] == "clt":
        return _build_walk_config(entry, path, master_seed)
    if entry["kind"] == "moments":
        return _parse_moments_entry(entry, f"{path}.")
    return _as_int(entry.get("cases", 50), f"{path}.cases", minimum=1)


def _moments_verdict(report) -> str:
    if report.branch == "parity":
        return "PASS" if report.max_abs_z < 4.0 else "FAIL"
    target = -report.weight / 2.0
    return "PASS" if abs(report.slope - target) <= 0.5 else "FAIL"


def cmd_clt(manifest_path, out_dir, seed_override=None, workers=None) -> int:
    """Run every manifest entry, write one JSON report per entry plus the
    suite CSV, and return 0 only if all verdicts PASS.

    Every entry is validated before the first one runs, so a bad entry
    raises :class:`ManifestError` with nothing computed or written.  With
    ``workers`` > 1 one process pool serves every walk entry of the run.
    """
    doc, config_hash = load_manifest(manifest_path)
    master_seed = doc["seed"] if seed_override is None else seed_override
    entries = doc.get("entries", [])
    parsed = [_parse_entry(entry, f"entries[{i}]", master_seed) for i, entry in enumerate(entries)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    all_pass = True
    with ProcessPoolExecutor(max_workers=workers) if workers and workers > 1 else nullcontext() as pool:
        for entry, args in zip(entries, parsed):
            eid = entry["id"]
            kind = entry["kind"]
            if kind == "clt":
                cfg, checks, rel_tol = args
                report = verify_clt(cfg, pool=pool, stream_tag=_entry_tag(eid), checks=checks,
                                    rel_tol=rel_tol)
                _write_json(out / f"{eid}.json", {"meta": _meta(master_seed, config_hash),
                                                  "entry_id": eid, "report": report.to_dict()})
                q = cfg.nu.q
                rows.append((
                    eid, cfg.regime, str(cfg.n), str(cfg.p), str(q),
                    _fmt(_summary_scalar(report.predicted_limit, q)),
                    _fmt(_summary_scalar(report.empirical_cov, q)),
                    _fmt(_summary_scalar(report.stderr, q)),
                    _fmt(report.rel_frob_err_limit),
                    _fmt(report.ks_stat) if report.ks_stat is not None else "",
                    report.overall,
                ))
                all_pass &= report.overall == "PASS"
            elif kind == "moments":
                report = moment_decay_experiment(*args, trial_stream(master_seed, _entry_tag(eid), 0))
                verdict = _moments_verdict(report)
                _write_json(out / f"{eid}.json", {"meta": _meta(master_seed, config_hash),
                                                  "entry_id": eid, "verdict": verdict,
                                                  "report": report.to_dict()})
                all_pass &= verdict == "PASS"
            else:  # selftest
                results = run_selftest_suites(seed=master_seed, cases=args)
                ok = all(passed for _, passed, _ in results)
                _write_json(out / f"{eid}.json", {"meta": _meta(master_seed, config_hash),
                                                  "entry_id": eid,
                                                  "verdict": "PASS" if ok else "FAIL",
                                                  "suites": [{"suite": s, "passed": p, "detail": d}
                                                             for s, p, d in results]})
                all_pass &= ok
    header = f"# tool=radwalk version={__version__} master_seed={master_seed} config_sha256={config_hash}\n"
    lines = [header, ",".join(CSV_COLUMNS) + "\n"]
    lines += [",".join(row) + "\n" for row in rows]
    (out / "summary.csv").write_text("".join(lines))
    return 0 if all_pass else 1


def _selftest_kron(a, b):
    """Kronecker product routed through the corrupted-build canary hook."""
    out = np.kron(np.atleast_2d(np.asarray(a, dtype=np.float64)),
                  np.atleast_2d(np.asarray(b, dtype=np.float64)))
    if os.environ.get(ENV_SKEW_KRON):
        out = out + 1e-6
    return out


def run_selftest_suites(seed: int = DEFAULT_SELFTEST_SEED, cases: int = 200):
    """Exact-identity suites; returns a list of (name, passed, detail)."""
    rng = np.random.default_rng(seed)
    results = []

    # factor reordering: permuted product equals P (product) Q exactly
    worst = 0.0
    ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 5))
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(k)]
        mats = [rng.integers(-4, 5, size=sh).astype(float) for sh in shapes]
        sigma = rng.permutation(k)
        p, q = reorder_perm(shapes, sigma)
        observed = reduce(_selftest_kron, [mats[i] for i in sigma])
        expected = p.apply_left(q.apply_right(reduce(kron, mats)))
        if not np.array_equal(observed, expected):
            ok = False
            worst = max(worst, float(np.abs(observed - expected).max()))
    results.append(("kron-reorder", ok, f"{cases} cases, exact" if ok else f"max abs dev {worst:.3e}"))

    # multinomial expansion equals the Kronecker power of the sum
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        xs = [rng.standard_normal(shape) for _ in range(n)]
        expansion = kron_multinomial_expand(xs, k)
        power = reduce(_selftest_kron, [sum(xs)] * k)
        scale = max(1.0, float(np.abs(power).max()))
        worst = max(worst, float(np.abs(expansion - power).max()) / scale)
    results.append(("kron-multinomial", worst <= 1e-12, f"max rel dev {worst:.3e}"))

    # permutation conjugation distributes over the entrywise product, exactly
    ok = True
    for _ in range(max(1, cases // 2)):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, cols))
        p = PermMat(rng.permutation(rows))
        q = PermMat(rng.permutation(cols))
        lhs = p.apply_left(q.apply_right(hadamard(a, b)))
        rhs = hadamard(p.apply_left(q.apply_right(a)), p.apply_left(q.apply_right(b)))
        ok &= np.array_equal(lhs, rhs)
    results.append(("hadamard-conjugation", ok, "exact" if ok else "violated"))

    # univariate Gaussian moments match the double-factorial closed form
    ok = True
    for sigma2 in (1.0, 2.0, 0.25, 4.0):
        spec = MatrixNormalSpec(1, np.zeros((1, 1)), np.array([[sigma2]]))
        for k in (2, 4, 6, 8):
            u = k // 2
            expected = sigma2**u * factorial(k) / (2**u * factorial(u))
            got = wick_moment(spec, (((0, 0),) * k))
            ok &= got == expected
    results.append(("wick-univariate", ok, "k in {2,4,6,8}, exact" if ok else "mismatch"))

    # moments of a sum of independents match the summed-covariance law
    worst = 0.0
    for _ in range(20):
        q = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        covs = []
        for _ in range(2):
            m = rng.standard_normal((q * q, q * q))
            covs.append(m @ m.T)
        s1 = MatrixNormalSpec(q, np.zeros((q, q)), covs[0])
        s2 = MatrixNormalSpec(q, np.zeros((q, q)), covs[1])
        lhs = sum_moment(s1, s2, k)
        rhs = moment_tensor(MatrixNormalSpec(q, np.zeros((q, q)), covs[0] + covs[1]), k)
        scale = max(1.0, float(np.abs(rhs).max()))
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    results.append(("gaussian-sum-moment", worst <= 1e-10, f"max rel dev {worst:.3e}"))
    return results


def cmd_selftest(seed: int = DEFAULT_SELFTEST_SEED) -> int:
    results = run_selftest_suites(seed=seed)
    for name, passed, detail in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if all(passed for _, passed, _ in results) else 1


def cmd_moments(law_path, kappa_text, p_grid_text, trials, out_dir, seed=0) -> int:
    """Run one moments sweep from the command-line flags, which become a
    moments entry checked by the manifest's rules, and write moments.csv."""
    law_cfg, raw = _read_json(law_path, "law")
    # "row,col:exp;..." is the manifest's [[[row, col], exp], ...] without its brackets
    terms = (t.replace(":", "],") for t in kappa_text.split(";") if t.strip())
    entry = {"law": law_cfg, "kappa": _decode("[" + ",".join(f"[[{t}]" for t in terms) + "]", "kappa"),
             "p_grid": _decode(f"[{p_grid_text}]", "p_grid"), "trials": trials}
    law, kappa, p_grid, trials = _parse_moments_entry(entry)
    # keyed on the canonical multi-index, so every spelling of the sweep
    # draws the same stream and multiplies its factors in the same order
    kappa = sorted(normalize_kappa(kappa).items())
    sweep = json.dumps([kappa, p_grid, trials], separators=(",", ":"))
    config_hash = hashlib.sha256(raw + f"|{sweep}".encode()).hexdigest()
    rng = trial_stream(seed, _entry_tag(f"moments:{sweep}"), 0)
    report = moment_decay_experiment(law, kappa, p_grid, trials, rng)
    verdict = _moments_verdict(report)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# tool=radwalk version={__version__} master_seed={seed} config_sha256={config_hash}\n",
             "p,estimate,stderr\n"]
    for p, est, se in zip(report.p_grid, report.estimates, report.stderrs):
        lines.append(f"{p},{_fmt(est)},{_fmt(se)}\n")
    if report.branch == "decay":
        lines.append(f"slope,{_fmt(report.slope)},{_fmt(report.slope_stderr)}\n")
    (out / "moments.csv").write_text("".join(lines))

    if report.branch == "parity":
        print(f"parity: {verdict} (max |z| = {report.max_abs_z:.3f})")
    else:
        print(f"decay: {verdict} (slope {report.slope:.3f} vs {-report.weight / 2.0:.1f})")
    return 0 if verdict == "PASS" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="radwalk",
                                     description="Radial-walk limit-theorem verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_clt = sub.add_parser("clt", help="run the walk experiments of a manifest")
    p_clt.add_argument("--manifest", required=True)
    p_clt.add_argument("--seed", type=int, default=None, help="override the manifest master seed")
    p_clt.add_argument("--workers", type=int, default=None)
    p_clt.add_argument("--out", default="out")

    p_self = sub.add_parser("selftest", help="run the exact-identity suites")
    p_self.add_argument("--seed", type=int, default=DEFAULT_SELFTEST_SEED)

    p_mom = sub.add_parser("moments", help="moment parity / decay experiment")
    p_mom.add_argument("--law", required=True, help="path to a law config JSON file")
    p_mom.add_argument("--kappa", required=True, help='sparse multi-index, e.g. "0,0:2;1,0:2"')
    p_mom.add_argument("--p-grid", required=True, help="comma-separated dimensions")
    p_mom.add_argument("--trials", type=int, default=20000)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _as_int(args.seed, "--seed", minimum=0)
        if args.command == "selftest":
            return cmd_selftest(seed=args.seed)
        if args.command == "moments":
            return cmd_moments(args.law, args.kappa, args.p_grid, args.trials, args.out, seed=args.seed)
        env_workers = os.environ.get(ENV_WORKERS)
        name, workers = ((ENV_WORKERS, _decode(env_workers, ENV_WORKERS)) if env_workers
                         else ("--workers", args.workers))
        if workers is not None:
            _as_int(workers, name, minimum=1)
        return cmd_clt(args.manifest, args.out, seed_override=args.seed,
                       workers=workers or os.cpu_count() or 1)
    except ManifestError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
