"""Checked-in `opdiv` outputs that every refactor must reproduce.

Each `verify` golden file is the report text printed by `opdiv verify`
with its `wall_ms` line removed. The suite-wide run uses 64 trials, the
smallest count at which trials were once spread over a thread pool; the
quartic run has violations, so it pins which violating trial is reported
as the worst; the dim-5 run pins the Theorem 2.1 and Theorem 3.1 checks
with their unit-weight corollaries and the Example 3.3 fixture at a
larger dimension; the dim-8 quartic run pins, for the field, mixture
and Jensen-chain checks, which violating trial is reported as the worst
at the largest dimension the generator allows; the dim-8 quartic run of
the application checks (the Choi-Davis-Jensen refinements, the norm,
tensor, Kullback-Leibler and scalar checks and the fixture) does the
same for them, at the largest tensor size LEMMA_JADJIT builds, and was
generated while they still built and compared one trial at a time. The
`reproduce-example --json` output carries no `wall_ms` and is compared
whole.
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
    "golden_chain_dim5_t40_s2024.json": (
        [
            "verify",
            "--suite",
            "THM2_1,COR2_2_SUBADD,THM3_1_CHAIN,THM3_1_II,COR3_4_ISOM,EX3_3_EXACT",
            "--dim",
            "5",
            "--trials",
            "40",
            "--seed",
            "2024",
        ],
        0,
    ),
    "golden_quartic_dim8_t60_s7.json": (
        [
            "verify",
            "--suite",
            "THM2_1,COR2_2_SUBADD,COR2_2_II,COR2_3_SPLIT,THM2_4_MIXTURE,"
            "THM2_12_GRAD,THM3_1_CHAIN,THM3_1_II,COR3_4_ISOM",
            "--dim",
            "8",
            "--trials",
            "60",
            "--seed",
            "7",
            "--function",
            '{"id":"quartic"}',
        ],
        1,
    ),
    "golden_applications_quartic_dim8_t60_s7.json": (
        [
            "verify",
            "--suite",
            "THM2_6_CDJ_DELTA,COR2_7_SINGLE,EX2_8_POWER,COR2_9_VECTOR,THM2_10_DOM,"
            "THM_DELTA_NABLA,THM3_8_NORM,LEMMA_JADJIT,KL_SUITE,SCALAR_CSISZAR,EX3_3_EXACT",
            "--dim",
            "8",
            "--trials",
            "60",
            "--seed",
            "7",
            "--function",
            '{"id":"quartic"}',
        ],
        1,
    ),
    "golden_reproduce_example.json": (["reproduce-example", "--json"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, capsys):
    argv, want_code = CASES[name]
    assert main(argv) == want_code
    text = capsys.readouterr().out
    stripped = re.sub(r',\n  "wall_ms": [^\n]*', "", text)
    if argv[0] == "verify":
        assert stripped != text, "report carries no wall_ms line"
    assert stripped == (GOLDEN / name).read_text(encoding="utf-8")
