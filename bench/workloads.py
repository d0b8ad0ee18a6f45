"""Workload manifests, generated from the benchmark seed.

Each workload is a list of ``(name, manifest)`` pairs, one manifest per
entry and named after it, so that each entry is run and timed by its own
``radwalk.cli.cmd_clt`` call, into its own output directory.  The seed
fixes the master seed and the law parameters; the sizes never depend on it,
so the work done per round is the same for every seed.

``KNOWN_FAULTS`` names the entries that fail on every run because of a
program fault that still stands.  Their manifests take no input from the
seed, so the failed share of operations is the same in every run.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("walk_matrix", "walk_scalar", "moments_sweep")

# q = 1 fast path at p = 1: the squared norm rounds below zero and the
# square root turns it into NaN (radwalk.clt_experiments._fast_chunk_q1).
KNOWN_FAULTS = {"walk_scalar": {"p1_nan"}}

FAULT_SEED = 20240811


def _r(x: float) -> float:
    return round(x, 6)


def _two_point(rng: random.Random) -> dict:
    return {"family": "two_point",
            "params": {"r_a": 1.0, "p_a": 0.5, "r_b": _r(rng.uniform(1.4, 2.0))}}


def _uniform_interval(rng: random.Random) -> dict:
    a = _r(rng.uniform(0.5, 1.0))
    return {"family": "uniform_interval", "params": {"a": a, "b": _r(a + rng.uniform(0.5, 1.0))}}


def _atoms(rng: random.Random, q: int) -> dict:
    """Two equally weighted symmetric radii, diagonally dominant so PSD."""
    atoms = []
    for _ in range(2):
        r = [[0.0] * q for _ in range(q)]
        for i in range(q):
            r[i][i] = _r(rng.uniform(1.0, 1.6))
            for j in range(i):
                r[i][j] = r[j][i] = _r(rng.uniform(-0.8, 0.8) / q)
        atoms.append({"weight": 0.5, "radius": [v for row in r for v in row]})
    return {"q": q, "atoms": atoms}


def _clt(eid, regime, n, p, trials, law, checks=("exact", "limit", "ks")):
    return {"id": eid, "kind": "clt", "regime": regime, "n": n, "p": p,
            "trials": trials, "law": law, "checks": list(checks)}


def _moments(eid, law, kappa, p_grid, trials=20000):
    return {"id": eid, "kind": "moments", "law": law, "kappa": kappa,
            "p_grid": p_grid, "trials": trials}


def _split(suite: str, seed: int, entries: list[dict]) -> list[tuple[str, dict]]:
    return [(e["id"], {"suite": suite, "seed": seed, "entries": [e]}) for e in entries]


def build(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The manifests of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    master = rng.randrange(2**31)
    if workload == "walk_matrix":
        # Direct p x q path: the orbit draw and the O(n p q) state update
        # dominate and grow with p.  Every entry spans two or more chunks so
        # the parallel pass has work for each worker.
        entries = [
            _clt("q2_clt2_p2000", "CLT_II", 3, 2000, 1024, _atoms(rng, 2), ("exact",)),
            _clt("q2_mixed_p300", "MIXED", 12, 300, 1024, _atoms(rng, 2), ("exact", "limit")),
            _clt("q3_clt2_p400", "CLT_II", 7, 400, 1024, _atoms(rng, 3), ("exact",)),
        ]
        return _split(workload, master, entries)
    if workload == "walk_scalar":
        # q = 1 fast path: a per-step Python loop of radius and Beta draws
        # whose cost does not depend on p.
        entries = [
            _clt("clt1_n10000_p40", "CLT_I", 10000, 40, 1024, _two_point(rng), ("exact", "limit")),
            _clt("clt2_p100000", "CLT_II", 300, 100000, 4096, _uniform_interval(rng)),
            _clt("mixed_n600_p600", "MIXED", 600, 600, 2048, _two_point(rng), ("exact", "limit")),
        ]
        fault = _clt("p1_nan", "CLT_I", 50, 1, 2048,
                     {"family": "two_point", "params": {"r_a": 1.0, "p_a": 0.5, "r_b": math.sqrt(3.0)}},
                     ("exact",))
        return _split(workload, master, entries) + _split(workload, FAULT_SEED, [fault])
    if workload == "moments_sweep":
        # One 20000 x p x q orbit batch per grid point.  The grids stop at
        # p q = 512, well short of the uncapped sample's memory cliff; the
        # parity sweeps, whose target is 0 at every p, stop at p q = 256.
        law1, law2 = _two_point(rng), _atoms(rng, 2)
        entries = [
            _moments("q1_decay", law1, [[[0, 0], 2]], [16, 64, 256, 512]),
            _moments("q1_parity", law1, [[[0, 0], 1], [[1, 0], 2]], [32, 256]),
            _moments("q2_decay", law2, [[[0, 0], 2]], [8, 32, 128, 256]),
            _moments("q2_parity", law2, [[[0, 1], 1], [[2, 0], 1]], [16, 128]),
            {"id": "algebra_selftest", "kind": "selftest", "cases": 200},
        ]
        return _split(workload, master, entries)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def draws(manifests) -> int:
    """Monte Carlo draws one pass makes: walk trials for ``clt`` entries,
    samples x grid points for ``moments`` entries."""
    total = 0
    for _, doc in manifests:
        for e in doc["entries"]:
            if e["kind"] == "clt":
                total += e["trials"]
            elif e["kind"] == "moments":
                total += e["trials"] * len(e["p_grid"])
    return total
