"""The golden manifest's outputs, reproduced at 1 and 2 workers, and the
golden command-line outputs.

``tests/golden/expected`` holds the reports and ``summary.csv`` of
``tests/golden/manifest.json``, and ``tests/golden/commands`` the stdout of
``radwalk selftest`` and the ``moments.csv`` of one ``radwalk moments``;
``tests/golden/regenerate.py`` rewrites them for a change that moves them on
purpose.  Every number must agree within 1e-9 relative (1e-12 absolute, for
roundoff-sized selftest deviations) and every other character exactly, so
each verdict does; where numpy and the CPU features it dispatches on are the
recorded ones, every byte must agree.
"""

import json
import re

import pytest

from golden.regenerate import COMMANDS, ENV, EXPECTED, commands, environment, run

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _agrees(expected: str, observed: str) -> bool:
    """The same text outside its numbers, and each number within tolerance."""
    if _NUMBER.split(expected) != _NUMBER.split(observed):
        return False
    pairs = zip(_NUMBER.findall(expected), _NUMBER.findall(observed), strict=True)
    return all(float(x) == pytest.approx(float(y), rel=1e-9, abs=1e-12) for x, y in pairs)


def _reproduces(directory, observed):
    """Assert that ``observed`` holds the files of ``directory``, by the rule above."""
    expected = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    assert sorted(observed) == sorted(expected)
    for name, data in expected.items():
        assert _agrees(data.decode(), observed[name].decode()), name
    if environment() == json.loads(ENV.read_text()):
        assert observed == expected


@pytest.mark.parametrize("workers, pools", [(1, []), (2, [2, 2])])
def test_golden_outputs_are_reproduced(tmp_path, forced_pools, workers, pools):
    observed = run(tmp_path / "out", workers)
    assert forced_pools == pools  # at 2 workers, each walk's three chunks ran on a pool
    _reproduces(EXPECTED, observed)


def test_golden_command_outputs_are_reproduced(tmp_path):
    _reproduces(COMMANDS, commands(tmp_path / "moments"))


def test_golden_comparison_tells_a_moved_number_from_roundoff():
    text = '{"overall": "PASS", "stderr": 0.34189551970247423, "detail": "max rel dev 2.720e-15"}'
    assert _agrees(text, text.replace("0.34189551970247423", "0.34189551970247428"))
    assert _agrees(text, text.replace("2.720e-15", "6.606e-15"))
    assert not _agrees(text, text.replace("0.34189551970247423", "0.341895521"))
    assert not _agrees(text, text.replace("PASS", "FAIL"))
