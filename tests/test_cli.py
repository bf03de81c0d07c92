"""End-to-end CLI runs over temporary files."""

from __future__ import annotations

import json

import pytest

from jensen_stab import bundled_carrier, function_to_dict, generate_solution, perturb
from jensen_stab.cli import main


def _write(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture
def s3_files(tmp_path):
    c = bundled_carrier("s3")
    carrier_path = tmp_path / "s3.json"
    _write(carrier_path, c.to_dict())
    f = perturb(generate_solution(c, 3 + 2j), "seeded_uniform", 0.1, seed=5)
    fn_path = tmp_path / "f.json"
    _write(fn_path, function_to_dict(f))
    return carrier_path, fn_path


def test_check_carrier_ok_and_bundled(s3_files, capsys):
    carrier_path, _ = s3_files
    assert main(["check-carrier", "--carrier", str(carrier_path)]) == 0
    assert main(["check-carrier", "--carrier", "q8"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_carrier_rejects_corrupted(tmp_path, capsys):
    c = bundled_carrier("z6")
    data = c.to_dict()
    data["op"][2][3] = (data["op"][2][3] + 1) % 6
    bad_path = tmp_path / "bad.json"
    _write(bad_path, data)
    report_path = tmp_path / "report.json"
    assert main(["check-carrier", "--carrier", str(bad_path), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert not report["ok"]
    assert report["violations"][0]["axiom"] == "associativity"
    assert "INVALID" in capsys.readouterr().out


def test_defect_command(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    report_path = tmp_path / "defect.json"
    code = main([
        "defect", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["equation"] == "jensen"
    assert report["delta"] > 0
    assert "delta" in capsys.readouterr().out


def test_inequalities_command(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    report_path = tmp_path / "ineq.json"
    code = main([
        "inequalities", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--report", str(report_path),
    ])
    assert code == 0
    records = json.loads(report_path.read_text())["inequalities"]
    assert {r["name"] for r in records} == {
        "eq_2_9", "eq_2_10", "eq_2_11", "eq_2_12", "eq_2_13", "eq_2_14", "eq_2_15", "eq_2_16", "eq_2_21",
    }
    assert all(r["holds"] for r in records)


def test_stabilize_then_verify_roundtrip(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    out_path = tmp_path / "g.json"
    side_path = tmp_path / "g.report.json"
    code = main([
        "stabilize", "--method", "mean", "--carrier", str(carrier_path),
        "--function", str(fn_path), "--out", str(out_path), "--report", str(side_path),
    ])
    assert code == 0
    g_data = json.loads(out_path.read_text())
    assert g_data["kind"] == "table"
    side = json.loads(side_path.read_text())
    assert side["method"] == "mean"

    verify_report = tmp_path / "verify.json"
    code = main([
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(out_path), "--solution-report", str(side_path),
        "--report", str(verify_report),
    ])
    assert code == 0
    rep = json.loads(verify_report.read_text())
    assert rep["pass"]
    assert rep["stability"]["holds"]


def test_verify_fails_on_wrong_solution(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    c = bundled_carrier("s3")
    bogus = generate_solution(c, 40 + 0j)
    bogus_path = tmp_path / "bogus.json"
    _write(bogus_path, function_to_dict(bogus))
    code = main([
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(bogus_path),
    ])
    assert code == 1


def test_experiment_command_and_determinism(tmp_path):
    cfg = {
        "carrier": "z6",
        "base": {"constant": [2.0, 0.0], "linear": None},
        "noise": {"type": "seeded_uniform", "amplitude": 0.2, "seed": 11},
        "methods": ["mean", "dyadic"],
    }
    cfg_path = tmp_path / "cfg.json"
    _write(cfg_path, cfg)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["experiment", "--config", str(cfg_path), "--report", str(r1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--report", str(r2)]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("timing")
    d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_experiment_seed_override(tmp_path):
    cfg = {
        "carrier": "z6",
        "base": {"constant": [2.0, 0.0], "linear": None},
        "noise": {"type": "seeded_uniform", "amplitude": 0.2, "seed": 11},
        "methods": ["dyadic"],
    }
    cfg_path = tmp_path / "cfg.json"
    _write(cfg_path, cfg)
    r1 = tmp_path / "r1.json"
    assert main(["experiment", "--config", str(cfg_path), "--seed", "99", "--report", str(r1)]) == 0
    assert json.loads(r1.read_text())["config"]["noise"]["seed"] == 99


def test_unknown_carrier_is_a_clean_error(capsys):
    assert main(["check-carrier", "--carrier", "missing.json"]) == 2
    assert "error:" in capsys.readouterr().err


def _assert_clean_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        None,  # no file at all
        "{not json",
        [],
        {"carrier": "s3", "folner_k": "abc"},
        {"carrier": "s3", "folner_k": 0},
        {"carrier": "s3", "base": {"constant": [1, "a"]}},
    ],
)
def test_experiment_bad_config_is_a_clean_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg_path.write_text(config, encoding="utf-8")
    elif config is not None:
        _write(cfg_path, config)
    _assert_clean_error(capsys, ["experiment", "--config", str(cfg_path)])


def test_missing_or_malformed_input_files_are_clean_errors(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    missing = str(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "table", "values": ', encoding="utf-8")
    _assert_clean_error(capsys, ["defect", "--carrier", str(carrier_path), "--function", missing])
    _assert_clean_error(capsys, ["defect", "--carrier", str(carrier_path), "--function", str(broken)])
    _assert_clean_error(capsys, ["check-carrier", "--carrier", str(broken)])
    _assert_clean_error(capsys, [
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path), "--solution", missing,
    ])


def test_lattice_carrier_file_and_oracle(tmp_path):
    _write(tmp_path / "lat.json", {"kind": "lattice", "dim": 1, "window": 16, "folner_max": 64})
    _write(
        tmp_path / "f.json",
        {"kind": "oracle", "linear": [2.0], "constant": [5.0, 0.0],
         "noise": {"type": "parity", "amplitude": 0.1, "seed": 0}},
    )
    out = tmp_path / "g.json"
    code = main([
        "stabilize", "--method", "dyadic", "--carrier", str(tmp_path / "lat.json"),
        "--function", str(tmp_path / "f.json"), "--out", str(out),
    ])
    assert code == 0
    code = main([
        "verify", "--carrier", str(tmp_path / "lat.json"), "--function", str(tmp_path / "f.json"),
        "--solution", str(out), "--solution-report", str(tmp_path / "g.report.json"),
    ])
    assert code == 0
