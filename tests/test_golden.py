"""Golden outputs: every case of tests/golden/cases.txt prints what it recorded.

A case compares its exit code, first stderr line, warning count and stdout
with ``tests/golden/<case>.out``.  The text between numbers must match
exactly; each number must match within ``REL_TOL`` relative, or within
``ABS_FLOOR`` absolute, the round-off of the O(1) probabilities and energies
the outputs are sums of (about 50 ulps of 1).  ``tests/golden/regenerate.py``
rewrites the records; see its docstring for when that is allowed.
"""
from __future__ import annotations

import importlib.util
import math
import re
import time
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

REL_TOL = 1e-12
ABS_FLOOR = 1e-14
CASE_SECONDS = 0.5
CORPUS_BYTES = 1_000_000
CASES = golden.load_cases()
# A number standing alone: not part of a name such as "rc2" or "n5".
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def _numbers_match(expected: str, actual: str) -> bool:
    a, b = float(expected), float(actual)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)


def _first_difference(expected: str, actual: str) -> str | None:
    """Where the two outputs differ beyond the tolerances, or None."""
    for number, (want_line, got_line) in enumerate(
        zip(expected.splitlines(), actual.splitlines()), start=1
    ):
        want, got = NUMBER.split(want_line), NUMBER.split(got_line)
        # Odd positions hold the numbers, even ones the text between them.
        same = len(want) == len(got) and all(
            w == g if i % 2 == 0 else _numbers_match(w, g)
            for i, (w, g) in enumerate(zip(want, got))
        )
        if not same:
            return f"line {number}:\n  recorded {want_line!r}\n  printed  {got_line!r}"
    want_count, got_count = len(expected.splitlines()), len(actual.splitlines())
    if want_count != got_count:
        return f"recorded {want_count} lines, printed {got_count}"
    return None


@pytest.mark.parametrize("name", list(CASES))
def test_golden_case(name: str) -> None:
    expected = golden.record_path(name).read_text(encoding="utf-8")
    start = time.perf_counter()
    actual = golden.render(CASES[name])
    elapsed = time.perf_counter() - start
    difference = _first_difference(expected, actual)
    assert difference is None, f"{name} ({' '.join(CASES[name])}): {difference}"
    assert elapsed < CASE_SECONDS, f"{name} took {elapsed:.2f} s"


def test_golden_records_match_the_case_list() -> None:
    records = sorted(GOLDEN_DIR.glob("*.out"))
    assert {path.stem for path in records} == set(CASES)
    assert sum(path.stat().st_size for path in records) < CORPUS_BYTES


def test_golden_comparison_rejects_a_moved_number_or_word() -> None:
    recorded = "# exit: 0\nvalue,density_rm\n0.5,1.23456789012e-3\n"
    assert _first_difference(recorded, recorded) is None
    assert _first_difference(recorded, recorded.replace("e-3", "e-4")) is not None
    assert _first_difference(recorded, recorded.replace("density_rm", "density_rc")) is not None
    assert _first_difference(recorded, recorded.replace("exit: 0", "exit: 2")) is not None
    assert _first_difference(recorded, recorded + "0.6,0\n") is not None
    # Round-off under the absolute floor does not count.
    assert _first_difference("d=4.4e-16\n", "d=6.7e-16\n") is None
