"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against.

Usage (from the root of a checkout):

    PYTHONPATH=src python tests/golden/regenerate.py

It runs ``manifest.json`` (a q = 1 and a q = 2 walk of 1 100 trials, two
full chunks and a partial one, a q = 2 moments sweep and a 20-case
selftest) at 1 worker and writes its reports and ``summary.csv`` into
``expected/``.  It writes into ``commands/`` the stdout of ``radwalk
selftest`` at its default seed and the ``moments.csv`` of ``radwalk
moments`` on ``law_q1.json`` (a q = 1 parity sweep of 2 000 trials).  It
records in ``env.json`` the numpy version and the CPU features numpy
dispatches on, and prints each file that changed.  Run it only in a change
that alters the outputs on purpose, and say in that change's log which
files moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from radwalk import cli

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
EXPECTED = GOLDEN / "expected"
COMMANDS = GOLDEN / "commands"
ENV = GOLDEN / "env.json"
# radwalk moments on this law: an odd exponent, so the parity branch
LAW = GOLDEN / "law_q1.json"
MOMENTS_ARGS = ["--kappa", "0,0:1", "--p-grid", "4,16,64", "--trials", "2000"]


def environment() -> dict:
    """The numpy version, its build's baseline CPU features and the dispatch
    targets this CPU enables: on a match, the outputs must agree byte for byte."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)),
    }


def run(out: Path, workers: int = 1) -> dict[str, bytes]:
    """Run the golden manifest into ``out``; its files' bytes by name."""
    code = cli.cmd_clt(MANIFEST, out, workers=workers)
    if code not in (0, 1):
        raise RuntimeError(f"radwalk clt exited with {code}")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _stdout(argv) -> str:
    """What ``radwalk <argv>`` prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"radwalk {argv[0]} exited with {code}")
    return printed.getvalue()


def commands(out: Path) -> dict[str, bytes]:
    """``radwalk selftest`` stdout at its default seed, and the ``moments.csv``
    that ``radwalk moments`` writes into ``out``, by file name."""
    selftest = _stdout(["selftest"])
    _stdout(["moments", "--law", str(LAW), *MOMENTS_ARGS, "--out", str(out)])
    return {"selftest.txt": selftest.encode(), "moments.csv": (out / "moments.csv").read_bytes()}


def _rewrite(directory: Path, new: dict[str, bytes]) -> list[str]:
    """Replace the files in ``directory`` with ``new``; the paths whose bytes changed."""
    old = {path.name: path.read_bytes() for path in directory.glob("*")} if directory.is_dir() else {}
    changed = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for name, data in new.items():
        (directory / name).write_bytes(data)
    return [f"{directory.name}/{name}" for name in changed]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {EXPECTED: run(Path(tmp) / "out"), COMMANDS: commands(Path(tmp) / "moments")}
    changed = [path for directory, new in outputs.items() for path in _rewrite(directory, new)]
    env = json.dumps(environment(), indent=1) + "\n"
    if not ENV.is_file() or ENV.read_text() != env:
        changed.append(ENV.name)
    ENV.write_text(env)
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} of {sum(map(len, outputs.values())) + 1} files changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
