"""A golden transcript of ``pq``: each row's argv, exit code, stdout and stderr, replayed in process.

A refactor that keeps every row byte-identical keeps the CLI's output;
a change that means to alter a row re-records the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and names each changed row where the change is described.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from pqcalc.cli import main

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")


def record(argv: list[str]) -> dict:
    """Run ``main(argv)`` in process at a fixed 80-column help width; argparse's exits are exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


ROWS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_transcript_covers_every_command():
    commands = {row["argv"][0] for row in ROWS if row["argv"]}
    assert {"bracket", "derive", "taylor", "integrate", "identities"} <= commands
    assert len(ROWS) >= 150


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"])[:60] for row in ROWS])
def test_row_is_byte_identical(row):
    assert record(row["argv"]) == row


def _refuse(token: str):
    raise ValueError(f"{token} is not JSON")


def test_every_json_row_is_strict_json():
    # a refused command prints its error to stderr and nothing to stdout
    rows = [row for row in ROWS if "--json" in row["argv"] and row["stdout"]]
    assert len(rows) >= 35
    for row in rows:
        json.loads(row["stdout"], parse_constant=_refuse)


if __name__ == "__main__":
    rows = [record(row["argv"]) for row in ROWS]
    for old, new in zip(ROWS, rows):
        if old != new:
            print("changed:", old["argv"], file=sys.stderr)
    GOLDEN.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
