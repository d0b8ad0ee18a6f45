"""Correctness checks on the reports ``cmd_clt`` writes, computed apart
from the program: the law's moment functionals come from its own atoms or
closed form here, never from radwalk.

Each check returns a list of failure messages; an entry with any message
counts as a failed operation, whatever verdict the program printed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Width of the band, in the report's own standard errors, that an estimate
# must fall in.  At 6 the chance that correct code misses it on any entry of
# any seed the benchmark is run with is negligible (two-sided normal tail
# 2e-9 per entry).
Z_BAND = 6.0
# Relative tolerance for values that must equal the oracle to rounding.
EXACT_RTOL = 1e-12


def _atoms(law: dict) -> tuple[list[float], list[np.ndarray]]:
    family = law.get("family")
    if family is None:
        q = law["q"]
        return ([a["weight"] for a in law["atoms"]],
                [np.array(a["radius"], dtype=float).reshape(q, q) for a in law["atoms"]])
    prm = law["params"]
    if family == "point_mass":
        return [1.0], [np.array([[prm["radius"]]])]
    if family == "two_point":
        return [prm["p_a"], 1.0 - prm["p_a"]], [np.array([[prm["r_a"]]]), np.array([[prm["r_b"]]])]
    raise ValueError(f"no atoms for law family {family!r}")


def law_moments(law: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r2, Sigma, T) of a manifest law: E[r^2], Cov(vec r^2), and
    T[(i,j),(k,l)] = r2[i,k] r2[j,l] + r2[i,l] r2[j,k], row-major pairs."""
    if law.get("family") == "uniform_interval":
        a, b = law["params"]["a"], law["params"]["b"]
        m2, m4 = ((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)) for k in (2, 4))
        return np.array([[m2]]), np.array([[m4 - m2 * m2]]), np.array([[2.0 * m2 * m2]])
    weights, radii = _atoms(law)
    q = radii[0].shape[0]
    squares = [r @ r for r in radii]
    m = sum(w * s for w, s in zip(weights, squares))
    vecs = [s.reshape(-1) for s in squares]
    sigma = sum(w * np.outer(v, v) for w, v in zip(weights, vecs)) - np.outer(m.reshape(-1), m.reshape(-1))
    t = np.empty((q * q, q * q))
    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    t[i * q + j, k * q + l] = m[i, k] * m[j, l] + m[i, l] * m[j, k]
    return m, sigma, t


def exact_covariance(entry: dict) -> np.ndarray:
    """scale^2 (n Sigma + n (n-1)/p T) for a ``clt`` manifest entry."""
    n, p = entry["n"], entry["p"]
    scale = math.sqrt(p) / n if entry["regime"] == "CLT_I" else 1.0 / math.sqrt(n)
    _, sigma, t = law_moments(entry["law"])
    return scale * scale * (n * sigma + (n * (n - 1) / p) * t)


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def check_clt(entry: dict, doc: dict) -> list[str]:
    rep = doc["report"]
    expected = exact_covariance(entry)
    fails = []
    pred = _array(rep["predicted_exact"])
    if pred.shape != expected.shape or not np.all(
            np.abs(pred - expected) <= EXACT_RTOL * np.abs(expected).max()):
        fails.append("predicted_exact differs from scale^2 (n Sigma + n(n-1)/p T)")
    emp, se = _array(rep["empirical_cov"]), _array(rep["stderr"])
    if emp.shape != expected.shape or se.shape != expected.shape:
        return fails + ["empirical covariance has the wrong shape"]
    if not (np.all(np.isfinite(emp)) and np.all(np.isfinite(se))):
        return fails + ["empirical covariance or its stderr is not finite"]
    worst = float(np.max(np.abs(emp - expected) - Z_BAND * se))
    if worst > 0.0:
        fails.append(f"empirical covariance outside {Z_BAND:g} stderr of the exact value")
    return fails


def _kappa(entry: dict) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (i, j), e in entry["kappa"]:
        out[(i, j)] = out.get((i, j), 0) + e
    return {k: e for k, e in out.items() if e}


def check_moments(entry: dict, doc: dict) -> list[str]:
    rep = doc["report"]
    kappa = _kappa(entry)
    rows: dict[int, int] = {}
    for (i, _), e in kappa.items():
        rows[i] = rows.get(i, 0) + e
    even = all(s % 2 == 0 for s in rows.values())
    if rep["branch"] != ("decay" if even else "parity"):
        return [f"branch {rep['branch']!r} does not match the row sums of kappa"]
    if even and kappa != {(0, 0): 2}:
        raise ValueError(f"{entry['id']}: no exact value for even kappa {kappa}")
    grid = entry["p_grid"]
    est, se = _array(rep["estimates"]), _array(rep["stderrs"])
    if rep["p_grid"] != grid or est.shape != (len(grid),) or se.shape != (len(grid),):
        return ["estimates do not match the p grid"]
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(se)) and np.all(se > 0)):
        return ["moment estimate not finite, or its stderr not positive"]
    target = law_moments(entry["law"])[0][0, 0] / np.array(grid, dtype=float) if even else np.zeros(len(grid))
    # The grid points are independent draws, so a bias shared by all of them
    # also shows in the pooled z-score, before any single point leaves its band.
    z = (est - target) / se
    if np.any(np.abs(z) > Z_BAND) or abs(z.sum()) / math.sqrt(len(z)) > Z_BAND:
        what = "E[X_00^2] = r2[0,0]/p" if even else "0 (odd row sum)"
        return [f"moment estimates outside {Z_BAND:g} stderr of {what}"]
    return []


def check_selftest(entry: dict, doc: dict) -> list[str]:
    suites = doc.get("suites") or []
    failed = [s["suite"] for s in suites if not s["passed"]]
    if not suites or failed or doc.get("verdict") != "PASS":
        return [f"selftest suites failed: {failed or 'none run'}"]
    return []


CHECKS = {"clt": check_clt, "moments": check_moments, "selftest": check_selftest}


def check_outputs(doc: dict, out: Path) -> dict[str, list[str]]:
    """Failures per entry id of one manifest's output directory."""
    fails: dict[str, list[str]] = {}
    reports = {}
    for entry in doc["entries"]:
        eid = entry["id"]
        try:
            reports[eid] = json.loads((out / f"{eid}.json").read_text())
        except (OSError, ValueError) as exc:
            fails[eid] = [f"report unreadable: {exc}"]
            continue
        try:
            fails[eid] = CHECKS[entry["kind"]](entry, reports[eid])
        except (KeyError, TypeError, IndexError) as exc:
            fails[eid] = [f"report malformed: missing or mistyped {exc}"]
    try:
        lines = (out / "summary.csv").read_text().splitlines()
    except OSError:
        lines = []
    verdicts = {row.split(",")[0]: row.split(",")[-1] for row in lines[2:]}
    for entry in doc["entries"]:
        eid = entry["id"]
        overall = reports.get(eid, {}).get("report", {}).get("overall")
        if entry["kind"] == "clt" and verdicts.get(eid) != overall:
            fails[eid].append("summary.csv row missing or its verdict differs from the report")
    return fails


def differing_entries(doc: dict, ref: Path, other: Path) -> set[str]:
    """Entry ids whose outputs are not byte-identical between two runs of
    the same manifest; a differing summary.csv implicates every clt entry."""
    names = {f.name for d in (ref, other) if d.is_dir() for f in d.iterdir()}
    bad = set()
    for name in names:
        a, b = ref / name, other / name
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            continue
        if name == "summary.csv":
            bad |= {e["id"] for e in doc["entries"] if e["kind"] == "clt"}
        else:
            bad.add(name.removesuffix(".json"))
    return bad & {e["id"] for e in doc["entries"]}
