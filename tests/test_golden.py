"""Replay the recorded CLI cases and compare stdout and exit code exactly.

The cases and their outputs come from `tests/record_golden.py`.
"""

import hashlib
import json
import pathlib

import pytest

from record_golden import GOLDEN, run_case
from rotakit.cli import main

INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_golden_output(name):
    case = INDEX[name]
    code, stdout = run_case(main, case["argv"])
    kept: pathlib.Path = GOLDEN / f"{name}.out"
    if kept.exists():
        assert stdout == kept.read_bytes().decode("utf-8")
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == case["sha256"]
    assert code == case["exit"]
