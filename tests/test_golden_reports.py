"""Checked-in `opdiv verify` reports that every refactor must reproduce.

Each golden file is the report text printed by `opdiv verify` with its
`wall_ms` line removed. The suite-wide run uses 64 trials, the smallest
count at which trials were once spread over a thread pool; the quartic
run has violations, so it pins which violating trial is reported as the
worst.
"""

import re
from pathlib import Path

import pytest

from opdiv.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "golden_all_dim3_t64_s42.json": (
        ["verify", "--suite", "all", "--dim", "3", "--trials", "64", "--seed", "42"],
        0,
    ),
    "golden_quartic_dim2_t300_s1.json": (
        [
            "verify",
            "--suite",
            "THM2_1,COR2_2_SUBADD",
            "--dim",
            "2",
            "--trials",
            "300",
            "--seed",
            "1",
            "--function",
            '{"id":"quartic"}',
        ],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, capsys):
    argv, want_code = CASES[name]
    assert main(argv) == want_code
    text = capsys.readouterr().out
    stripped = re.sub(r',\n  "wall_ms": [^\n]*', "", text)
    assert stripped != text, "report carries no wall_ms line"
    assert stripped == (GOLDEN / name).read_text(encoding="utf-8")
