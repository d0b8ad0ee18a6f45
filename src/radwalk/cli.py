"""Batch front-end: parse experiment manifests, orchestrate seeded runs,
and emit machine-readable reports.

Manifests are JSON objects of a ``suite`` name, a master ``seed`` and a
required list of ``entries``; any other top-level key is a config error.
Each entry has a unique ``id``, which names its report file and so must be
a plain file name, and a ``kind``:

* ``clt`` -- a walk experiment: ``regime``, ``n``, ``p``, ``trials``,
  ``law``, optional ``checks`` and ``rel_tol``, the fields of a
  :class:`~radwalk.clt_experiments.WalkConfig`, run by
  ``verify_clt(cfg, workers)``.  The walk tracks only its q x q Gram
  matrix, so its cost does not depend on p.
* ``moments`` -- a monomial-moment sweep: ``law``, ``kappa`` (list of
  ``[[row, col], exponent]``), ``p_grid`` and ``trials``, the fields of a
  :class:`~radwalk.clt_experiments.MomentSweep`, run by
  ``moment_decay_experiment(sweep, rng)``.
* ``selftest`` -- the exact-identity ``SUITES``, optional ``cases`` (default ``SELFTEST_CASES``).

Each kind's result states its verdict (``ExperimentReport.overall``,
``MomentDecayReport.verdict``, or every suite passing), and one loop body
runs, judges and writes every entry's report.

Laws are ``{"q": q, "atoms": [{"weight": w, "radius": [row-major]}]}`` or
``{"family": name, "params": {...}}`` with families ``point_mass``,
``two_point``, ``uniform_interval``, parsed by ``RadialLaw.from_config``.

Each rule on a field is stated once, in ``WalkConfig``, ``MomentSweep``,
``RadialLaw`` or ``_config_keys`` (the rule on keys), whose errors name the
field; this module reads the JSON and prefixes the entry's path to the
errors.  ``load_manifest`` checks every entry and builds its config before
the first one runs, so a bad manifest exits with code 2 and a message
naming the field, with nothing written.  ``radwalk moments`` turns its
flags into a moments entry and applies the same rules.  ``--seed`` must be
an integer >= 0, and ``--workers`` an integer from 1 to ``WORKERS_CAP``.

Each walk entry runs on a process pool of its own, of as many of those
workers as ``clt_experiments._run_all_chunks`` finds its work pays for, or
in process where that is one.  Every output file embeds the tool version,
the master seed, and a SHA-256 hash of the manifest.  Outputs are
byte-identical for a fixed (manifest, seed, version) whatever the worker
count: random streams attach to fixed work units, results merge in trial
order, and no wall time is recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from functools import reduce
from math import factorial
from pathlib import Path

import numpy as np

from . import __version__
from .clt_experiments import (
    MomentSweep,
    WalkConfig,
    _workers,
    moment_decay_experiment,
    trial_stream,
    verify_clt,
)
from .combinatorics import kron_multinomial_expand
from .errors import BadArity, RadwalkError
from .gaussian_moments import MatrixNormalSpec, moment_tensor, sum_moment, wick_moment
from .kron_algebra import PermMat, hadamard, kron, reorder_perm
from .radial_measures import RadialLaw, _config_keys, _integer

# the verdict stays last, and decided_by joins its check names with "+", so no field holds a comma
CSV_COLUMNS = ("id", "regime", "n", "p", "q", "predicted_var", "empirical_var", "stderr", "rel_frob_err",
               "ks_stat", "max_abs_z_mean", "rel_frob_err_exact", "decided_by", "verdict")
# each entry kind's required and optional keys; any other key is a config error
_KEYS = {
    "clt": (("id", "law", "regime", "n", "p", "trials"), ("kind", "checks", "rel_tol")),
    "moments": (("id", "kind", "law", "kappa", "p_grid", "trials"), ()),
    "selftest": (("id", "kind"), ("cases",)),
}
# an entry id names its report file, <id>.json: a plain file name of at most 255 bytes
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,249}")
# The time rule on a selftest entry: at most this many cases, 500 times the largest in use.
SELFTEST_CASES_CAP = 10**5
# The cases of a selftest entry without ``cases``, and of ``radwalk selftest``.
SELFTEST_CASES = 200


class ManifestError(Exception):
    """Configuration error; the message names the offending field."""


def _fmt(x) -> str:
    """Round-trip-exact decimal text for a 64-bit real."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _entry_tag(entry_id: str) -> int:
    return int.from_bytes(hashlib.sha256(entry_id.encode()).digest()[:8], "big")


@contextmanager
def _named(prefix=""):
    """Raise a rule's RadwalkError, whose message starts with its field, as
    a ManifestError with ``prefix``, the path to that field, put before it."""
    try:
        yield
    except RadwalkError as exc:
        raise ManifestError(f"{prefix}{exc}") from exc


def _decode(text, field):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an int over 4300 digits, deep nesting
        raise ManifestError(f"{field}: invalid JSON: {exc}") from exc


def _read_json(path, field):
    """The decoded JSON file at ``path`` and its raw bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ManifestError(f"{field}: cannot read {path}: {exc}") from exc
    return _decode(raw, field), raw


def _out_dir(path) -> Path:
    """The output directory ``path``, created if missing; a path that cannot
    be a directory (an existing file, say) is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ManifestError(f"--out: {exc}") from exc
    return out


def load_manifest(path, seed_override=None):
    """``(doc, sha256 of its bytes, one config per entry)`` from the one check of a
    manifest, in document order: its top level, its ``seed`` (replaced by
    ``seed_override`` if given) and each entry.  A fault raises ManifestError."""
    doc, raw = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ManifestError("manifest: top level must be an object")
    with _named():
        _config_keys(doc, "", ("entries",), ("suite", "seed"))
        _integer(doc.setdefault("seed", 0), "seed", 0)
        if seed_override is not None:
            doc["seed"] = _integer(seed_override, "seed_override", 0)
        if not isinstance(doc["entries"], list):
            raise BadArity("entries: expected a list")
    configs, seen = [], set()
    for i, entry in enumerate(doc["entries"]):
        if not isinstance(entry, dict):
            raise ManifestError(f"entries[{i}]: expected an object")
        configs.append(_parse_entry(entry, f"entries[{i}].", doc["seed"]))
        if entry["id"] in seen:
            raise ManifestError(f"entries[{i}].id: duplicate id {entry['id']!r}")
        seen.add(entry["id"])
    return doc, hashlib.sha256(raw).hexdigest(), configs


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")  # no indent: json's C encoder


def _summary_scalar(matrix: np.ndarray, q: int) -> float:
    return float(matrix[0, 0]) if q == 1 else float(np.linalg.norm(matrix))


def _parse_entry(entry, prefix, master_seed=0):
    """The config an entry object's runner takes: a WalkConfig, a MomentSweep
    or a selftest's case count.  Errors name the field after ``prefix``,
    the entry path plus a dot in a manifest, empty on the command line."""
    with _named(prefix):
        kind = entry.get("kind", "clt")
        if not isinstance(kind, str) or kind not in _KEYS:
            raise BadArity(f"kind: unknown kind {kind!r}")
        _config_keys(entry, "", *_KEYS[kind])
        eid = entry["id"]
        if not isinstance(eid, str) or not _ID_PATTERN.fullmatch(eid):
            raise BadArity(f"id: expected a file name of at most 250 letters, digits, '_', "
                           f"'.' and '-' that starts with a letter or digit, got {eid!r}")
        if kind == "selftest":
            return _integer(entry.get("cases", SELFTEST_CASES), "cases", 1, SELFTEST_CASES_CAP)
        if not isinstance(entry["law"], dict):
            raise BadArity("law: expected an object")
    with _named(f"{prefix}law."):  # a law's message starts with the field's path in the law
        nu = RadialLaw.from_config(entry["law"])
    fields = {key: value for key, value in entry.items() if key not in ("id", "kind", "law")}
    with _named(prefix):
        if kind == "clt":
            return WalkConfig(nu=nu, seed=master_seed, stream_tag=_entry_tag(eid), **fields)
        return MomentSweep(nu=nu, **fields)


def cmd_clt(manifest_path, out_dir, seed_override=None, workers=1) -> int:
    """Run every manifest entry, write one JSON report per entry plus the
    suite CSV, and return 0 only if every verdict is PASS.  ``workers`` (each
    walk entry runs on up to that many processes), ``seed_override`` and
    every entry are checked before ``out_dir`` is made, so a fault raises
    :class:`ManifestError` with nothing computed or written."""
    with _named():
        _workers(workers)
    doc, config_hash, configs = load_manifest(manifest_path, seed_override)
    master_seed = doc["seed"]
    out = _out_dir(out_dir)
    meta = {"tool": "radwalk", "version": __version__, "master_seed": master_seed, "config_sha256": config_hash}
    rows = []
    all_pass = True
    for entry, cfg in zip(doc["entries"], configs):
        eid = entry["id"]
        rng = trial_stream(master_seed, _entry_tag(eid), 0)  # a walk keys one stream per chunk itself
        if isinstance(cfg, WalkConfig):
            report = verify_clt(cfg, workers)
            verdict, body = report.overall, {"report": report.to_dict()}
            q, checks = cfg.nu.q, report.checks
            rows.append((
                eid, cfg.regime, str(cfg.n), str(cfg.p), str(q),
                *(_fmt(_summary_scalar(m, q)) for m in (report.predicted_limit, report.empirical_cov, report.stderr)),
                _fmt(checks["limit"]["rel_frob_err"]), _fmt(checks["ks"]["stat"]), _fmt(report.max_abs_z_mean),
                _fmt(checks["exact"]["rel_frob_err"]), "+".join(report.decided_by), verdict,
            ))
        elif isinstance(cfg, MomentSweep):
            report = moment_decay_experiment(cfg, rng)
            verdict = report.verdict
            body = {"verdict": verdict, "report": report.to_dict()}
        else:  # selftest
            results = run_selftest_suites(rng, cases=cfg)
            verdict = "PASS" if all(passed for _, passed, _ in results) else "FAIL"
            body = {"verdict": verdict,
                    "suites": [{"suite": s, "passed": p, "detail": d} for s, p, d in results]}
        _write_json(out / f"{eid}.json", {"meta": meta, "entry_id": eid, **body})
        all_pass &= verdict == "PASS"
    header = f"# tool=radwalk version={__version__} master_seed={master_seed} config_sha256={config_hash}\n"
    lines = [header, ",".join(CSV_COLUMNS) + "\n"]
    lines += [",".join(row) + "\n" for row in rows]
    (out / "summary.csv").write_text("".join(lines))
    return 0 if all_pass else 1


def _reorder_case(rng):
    """Factor reordering: the permuted product equals P (product) Q."""
    k = int(rng.integers(2, 5))
    shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(k)]
    mats = [rng.integers(-4, 5, size=sh).astype(float) for sh in shapes]
    sigma = rng.permutation(k)
    p, q = reorder_perm(shapes, sigma)
    return reduce(np.kron, [mats[i] for i in sigma]), p.apply_left(q.apply_right(kron(*mats)))


def _multinomial_case(rng):
    """The multinomial expansion equals the Kronecker power of the sum."""
    n, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    xs = [rng.standard_normal(shape) for _ in range(n)]
    return kron_multinomial_expand(xs, k), reduce(np.kron, [sum(xs)] * k)


def _hadamard_case(rng):
    """Permutation conjugation distributes over the entrywise product."""
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a, b = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
    p, q = PermMat(rng.permutation(rows)), PermMat(rng.permutation(cols))
    lhs = p.apply_left(q.apply_right(hadamard(a, b)))
    return lhs, hadamard(p.apply_left(q.apply_right(a)), p.apply_left(q.apply_right(b)))


def _wick_case(rng):
    """Univariate Gaussian moments of orders 2 to 8 against the double-factorial form; draws nothing."""
    grid = [(sigma2, k // 2, k) for sigma2 in (1.0, 2.0, 0.25, 4.0) for k in (2, 4, 6, 8)]
    got = [wick_moment(MatrixNormalSpec(1, np.zeros((1, 1)), [[s2]]), ((0, 0),) * k) for s2, _, k in grid]
    return np.array(got), np.array([s2**u * factorial(k) / (2**u * factorial(u)) for s2, u, k in grid])


def _sum_moment_case(rng):
    """Moments of a sum of independents match the summed-covariance law."""
    q, k = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    covs = [m @ m.T for m in (rng.standard_normal((q * q, q * q)) for _ in range(2))]
    s1, s2, total = (MatrixNormalSpec(q, np.zeros((q, q)), cov) for cov in (*covs, covs[0] + covs[1]))
    return sum_moment(s1, s2, k), moment_tensor(total, k)


# name -> (case(rng) -> (observed, expected), cases run for a requested count, tolerance: 0 if exact in floats)
SUITES = {
    "kron-reorder": (_reorder_case, lambda cases: cases, 0.0),
    "kron-multinomial": (_multinomial_case, lambda cases: max(1, cases // 2), 1e-12),
    "hadamard-conjugation": (_hadamard_case, lambda cases: max(1, cases // 2), 0.0),
    "wick-univariate": (_wick_case, lambda cases: 1, 0.0),
    "gaussian-sum-moment": (_sum_moment_case, lambda cases: 20, 1e-10),
}


def run_selftest_suites(rng: np.random.Generator, cases: int = SELFTEST_CASES):
    """(name, passed, detail) of each suite of SUITES, on cases drawn from ``rng``.  A suite passes
    when its largest deviation, relative to max(1, max |expected|), is at most its tolerance."""
    results = []
    for name, (case, count, tolerance) in SUITES.items():
        pairs = [case(rng) for _ in range(count(cases))]
        devs = [np.abs(observed - expected).max() / max(1.0, np.abs(expected).max()) for observed, expected in pairs]
        worst = np.max(devs)  # NaN propagates, and fails the rule
        results.append((name, bool(worst <= tolerance), f"{len(devs)} cases, max rel dev {worst:.3e}"))
    return results


def cmd_selftest(seed: int) -> int:
    results = run_selftest_suites(trial_stream(seed, 0, 0))
    for name, passed, detail in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if all(passed for _, passed, _ in results) else 1


def cmd_moments(law_path, kappa_text, p_grid_text, trials, out_dir, seed=0) -> int:
    """Run one moments sweep from the command-line flags, which become a
    moments entry checked by the manifest's rules, and write moments.csv."""
    law_cfg, raw = _read_json(law_path, "law")
    # "row,col:exp;..." is the manifest's [[[row, col], exp], ...] without its brackets
    terms = (t.replace(":", "],") for t in kappa_text.split(";") if t.strip())
    entry = {"id": "moments", "kind": "moments", "law": law_cfg,
             "kappa": _decode("[" + ",".join(f"[[{t}]" for t in terms) + "]", "kappa"),
             "p_grid": _decode(f"[{p_grid_text}]", "p_grid"), "trials": trials}
    sweep = _parse_entry(entry, "")
    out = _out_dir(out_dir)
    # keyed on the canonical multi-index, so every spelling of the sweep
    # draws the same stream and multiplies its factors in the same order
    key = json.dumps([sweep.kappa, sweep.p_grid, sweep.trials], separators=(",", ":"))
    config_hash = hashlib.sha256(raw + f"|{key}".encode()).hexdigest()
    rng = trial_stream(seed, _entry_tag(f"moments:{key}"), 0)
    report = moment_decay_experiment(sweep, rng)

    lines = [f"# tool=radwalk version={__version__} master_seed={seed} config_sha256={config_hash}\n",
             "p,estimate,stderr\n"]
    for p, est, se in zip(report.p_grid, report.estimates, report.stderrs):
        lines.append(f"{p},{_fmt(est)},{_fmt(se)}\n")
    if report.branch == "decay":
        lines.append(f"slope,{_fmt(report.slope)},{_fmt(report.slope_stderr)}\n")
    (out / "moments.csv").write_text("".join(lines))

    if report.branch == "parity":
        print(f"parity: {report.verdict} (max |z| = {report.max_abs_z:.3f})")
    else:
        print(f"decay: {report.verdict} (slope {report.slope:.3f} vs {-report.weight / 2.0:.1f})")
    return 0 if report.verdict == "PASS" else 1


def main(argv=None) -> int:
    import argparse  # here, so that a library caller never loads it

    parser = argparse.ArgumentParser(prog="radwalk",
                                     description="Radial-walk limit-theorem verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_clt = sub.add_parser("clt", help="run the walk experiments of a manifest")
    p_clt.add_argument("--manifest", required=True)
    p_clt.add_argument("--seed", type=int, default=None, help="override the manifest master seed")
    p_clt.add_argument("--workers", type=int, default=None)
    p_clt.add_argument("--out", default="out")

    p_self = sub.add_parser("selftest", help="run the exact-identity suites")
    p_self.add_argument("--seed", type=int, default=20240811)

    p_mom = sub.add_parser("moments", help="moment parity / decay experiment")
    p_mom.add_argument("--law", required=True, help="path to a law config JSON file")
    p_mom.add_argument("--kappa", required=True, help='sparse multi-index, e.g. "0,0:2;1,0:2"')
    p_mom.add_argument("--p-grid", required=True, help="comma-separated dimensions")
    p_mom.add_argument("--trials", type=int, default=20000)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        with _named():  # the flags' own checks, so that their errors name the flag
            if args.seed is not None:
                _integer(args.seed, "--seed", 0)
            if args.command == "clt" and args.workers is not None:
                _workers(args.workers, "--workers")
        if args.command == "selftest":
            return cmd_selftest(seed=args.seed)
        if args.command == "moments":
            return cmd_moments(args.law, args.kappa, args.p_grid, args.trials, args.out, seed=args.seed)
        return cmd_clt(args.manifest, args.out, seed_override=args.seed,
                       workers=args.workers or os.cpu_count() or 1)
    except ManifestError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
