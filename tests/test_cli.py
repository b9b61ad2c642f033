import dataclasses
import json

import numpy as np
import pytest

from opdiv import cli, kernels, lab
from opdiv.cli import main


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "THM2_1" in out and "EX3_3_EXACT" in out


def test_verify_small_suite_green(capsys):
    code = main(
        ["verify", "--suite", "THM2_1,EX3_3_EXACT", "--dim", "2", "--trials", "20", "--seed", "42"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["suite"] == ["THM2_1", "EX3_3_EXACT"]
    assert [c["violations"] for c in report["checks"]] == [0, 0]
    assert "wall_ms" in report


def test_verify_quartic_finds_violations(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "THM2_1",
            "--dim",
            "2",
            "--trials",
            "300",
            "--seed",
            "1",
            "--function",
            '{"id": "quartic"}',
        ]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["violations"] >= 1
    assert report["config"]["function"] == "quartic"


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--suite", "NOPE"]) == 2
    assert "NOPE" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [",", " ", " , ,"])
def test_verify_empty_suite_exits_2(suite, capsys, tmp_path):
    """A suite that names no check runs nothing, so it is refused rather
    than reported green."""
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--trials", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_verify_too_many_trials_exits_2_before_any_trial(capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(lab, "run_check", no_trials)
    argv = ["verify", "--suite", "THM2_1", "--trials", str(lab.MAX_TRIALS + 1)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "trials" in err


def test_verify_writes_a_nan_margin_check_as_strict_json(capsys, monkeypatch):
    """A check whose every margin is NaN has no worst margin (the fold
    leaves inf): the report writes it as null, parses under a parser that
    refuses NaN and Infinity, and the run exits 1."""
    real = lab._REGISTRY["THM2_1"]

    def nan_margins(records, tol):
        payloads = real.evaluate(records, tol)[2]
        nan = np.full((len(records), 1), np.nan)
        return (*kernels.fold(nan, np.zeros_like(nan)), payloads)

    monkeypatch.setitem(lab._REGISTRY, "THM2_1", dataclasses.replace(real, evaluate=nan_margins))
    code = main(["verify", "--suite", "THM2_1,EX3_3_EXACT", "--dim", "2", "--trials", "5"])

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    checks = json.loads(capsys.readouterr().out, parse_constant=refuse)["checks"]
    assert code == 1
    assert [(c["violations"], c["worst_margin"] is None) for c in checks] == [(5, True), (0, False)]


def test_verify_bad_function_json_exits_2(capsys):
    assert main(["verify", "--suite", "THM2_1", "--function", "{not json"]) == 2
    assert main(["verify", "--suite", "THM2_1", "--function", '{"id": "nope"}']) == 2


@pytest.mark.parametrize(
    "spec",
    [
        '{"id":"power","params":2}',
        "[1]",
        '{"id":"power","params":["x"]}',
        '{"id":"quartic","params":[3]}',
    ],
)
def test_verify_malformed_function_spec_exits_2(spec, capsys):
    assert main(["verify", "--suite", "THM2_1", "--trials", "2", "--function", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
def test_verify_nan_tolerance_exits_2(flag, capsys):
    argv = [
        "verify",
        "--suite",
        "THM2_1",
        "--dim",
        "2",
        "--trials",
        "200",
        "--seed",
        "1",
        "--function",
        '{"id":"quartic"}',
        flag,
        "nan",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_verify_bad_dim_exits_2():
    assert main(["verify", "--suite", "THM2_1", "--dim", "77"]) == 2


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "SCALAR_CSISZAR", "--trials", "10", "--out", str(path)]
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["checks"][0]["id"] == "SCALAR_CSISZAR"
    assert capsys.readouterr().out == ""


def test_verify_out_file_io_error(tmp_path):
    bad = tmp_path / "missing" / "report.json"
    assert main(["verify", "--suite", "SCALAR_CSISZAR", "--trials", "5", "--out", str(bad)]) == 2


def test_verify_seed_determinism(capsys):
    args = ["verify", "--suite", "THM2_1,KL_SUITE", "--dim", "2", "--trials", "25", "--seed", "42"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_ms")
    second.pop("wall_ms")
    assert first == second


def test_reproduce_example_human_output(capsys):
    assert main(["reproduce-example"]) == 0
    out = capsys.readouterr().out
    assert "f_at_sum" in out
    assert "ok" in out.splitlines()[-1]


def test_reproduce_example_json(capsys):
    assert main(["reproduce-example", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True
    assert blob["matrices"][0]["expected"] == [[10.0, 5.0], [5.0, 5.0]]
    assert len(blob["gaps"]) == 3
    assert min(blob["gaps"]) > 0


def test_reproduce_example_perturbed_exits_1(capsys):
    from opdiv.cli import cmd_reproduce_example

    class Args:
        json = False

    assert cmd_reproduce_example(Args(), perturbation=1e-3) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


def test_parser_is_built_once_and_calls_do_not_share_options(capsys):
    """`main` reuses one parser; an option given to one call does not carry
    over to the next."""
    assert cli._parser() is cli._parser()
    argv = ["verify", "--suite", "THM2_1", "--dim", "2", "--trials", "5", "--seed", "1"]
    assert main(argv + ["--function", '{"id": "square"}']) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["config"]["function"] == "square"
    assert second["config"]["function"] is None
