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
* ``selftest`` -- the exact-identity suites, optional ``cases``.

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

import argparse
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

CSV_COLUMNS = ("id", "regime", "n", "p", "q", "predicted_var", "empirical_var",
               "stderr", "rel_frob_err", "ks_stat", "max_abs_z_mean", "verdict")
# each entry kind's required and optional keys; any other key is a config error
_KEYS = {
    "clt": (("id", "law", "regime", "n", "p", "trials"), ("kind", "checks", "rel_tol")),
    "moments": (("id", "kind", "law", "kappa", "p_grid", "trials"), ()),
    "selftest": (("id", "kind"), ("cases",)),
}
# an entry id names its report file, so it must stay a plain file name
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
# The time rule on a selftest entry: at most this many cases, 500 times the largest in use.
SELFTEST_CASES_CAP = 10**5


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
    except json.JSONDecodeError as exc:
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
            raise BadArity(f"id: expected a file name of letters, digits, '_', '.' "
                           f"and '-' that starts with a letter or digit, got {eid!r}")
        if kind == "selftest":
            return _integer(entry.get("cases", 50), "cases", 1, SELFTEST_CASES_CAP)
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
    suite CSV, and return 0 only if all verdicts PASS.  ``workers`` (each
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
            q = cfg.nu.q
            rows.append((
                eid, cfg.regime, str(cfg.n), str(cfg.p), str(q),
                _fmt(_summary_scalar(report.predicted_limit, q)),
                _fmt(_summary_scalar(report.empirical_cov, q)),
                _fmt(_summary_scalar(report.stderr, q)),
                _fmt(report.rel_frob_err_limit),
                _fmt(report.ks_stat) if report.ks_stat is not None else "",
                _fmt(report.max_abs_z_mean),
                verdict,
            ))
        elif isinstance(cfg, MomentSweep):
            report = moment_decay_experiment(cfg, rng)
            verdict = report.verdict
            body = {"verdict": verdict, "report": report.to_dict()}
        else:  # selftest
            results = run_selftest_suites(rng, cases=cfg)
            verdict = _selftest_verdict(results)
            body = {"verdict": verdict,
                    "suites": [{"suite": s, "passed": p, "detail": d} for s, p, d in results]}
        _write_json(out / f"{eid}.json", {"meta": meta, "entry_id": eid, **body})
        all_pass &= verdict == "PASS"
    header = f"# tool=radwalk version={__version__} master_seed={master_seed} config_sha256={config_hash}\n"
    lines = [header, ",".join(CSV_COLUMNS) + "\n"]
    lines += [",".join(row) + "\n" for row in rows]
    (out / "summary.csv").write_text("".join(lines))
    return 0 if all_pass else 1


def run_selftest_suites(rng: np.random.Generator, cases: int = 200):
    """Exact-identity suites on random cases drawn from ``rng``; returns a
    list of (name, passed, detail)."""
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
        observed = reduce(np.kron, [mats[i] for i in sigma])
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
        power = reduce(np.kron, [sum(xs)] * k)
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


def _selftest_verdict(results) -> str:
    return "PASS" if all(passed for _, passed, _ in results) else "FAIL"


def cmd_selftest(seed: int) -> int:
    results = run_selftest_suites(trial_stream(seed, 0, 0))
    for name, passed, detail in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if _selftest_verdict(results) == "PASS" else 1


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
