"""Run the golden-output cases and record their outputs.

Each line of ``cases.txt`` is a case name followed by the argv of one
``ottomon`` call.  A case runs in-process through ``ottomon.cli.main``; its
record ``<name>.out`` holds the exit code and the first line of stderr, then
the whole of stdout.  Warnings are recorded by count and kept off stderr.

Regenerate every record (from the repository root)::

    PYTHONPATH=src python tests/golden/regenerate.py

A golden value records what the program printed, not that it is right, so a
regeneration changes check data and each changed case needs its reason.
"""
from __future__ import annotations

import contextlib
import io
import shlex
import warnings
from pathlib import Path

from ottomon.cli import main as cli_main

HERE = Path(__file__).resolve().parent
CASES_FILE = HERE / "cases.txt"


def load_cases() -> dict[str, list[str]]:
    """Case name -> argv, in file order."""
    cases: dict[str, list[str]] = {}
    for line in CASES_FILE.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, *argv = shlex.split(line)
        if name in cases:
            raise ValueError(f"duplicate golden case {name!r}")
        cases[name] = argv
    return cases


def render(argv: list[str]) -> str:
    """Exit code, first stderr line and warning count, then stdout."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    first_error = (err.getvalue().splitlines() or [""])[0]
    header = f"# exit: {code}\n# stderr: {first_error}\n# warnings: {len(caught)}\n"
    return header + out.getvalue()


def record_path(name: str) -> Path:
    return HERE / f"{name}.out"


def main() -> None:
    cases = load_cases()
    for path in HERE.glob("*.out"):
        path.unlink()
    for name, argv in cases.items():
        record_path(name).write_text(render(argv), encoding="utf-8")


if __name__ == "__main__":
    main()
