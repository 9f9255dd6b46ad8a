import json

import numpy as np
import pytest

from gptcone import cli, symmetry
from gptcone.fixtures import appendix_measurement, build_fixtures
from gptcone.herm import ValidationError, partial_transpose
from gptcone.io import measurement_to_json, save_matrix


def _write_fixture_measurement(tmp_path):
    e1, e2 = appendix_measurement()
    path = tmp_path / "dovm.json"
    path.write_text(json.dumps(measurement_to_json([e1, e2])))
    return str(path)


def _stdout_report(capsys):
    return json.loads(capsys.readouterr().out)


def test_classify_fixture(tmp_path, capsys):
    path = _write_fixture_measurement(tmp_path)
    assert cli.run(["classify-dovm", path]) == 0
    rep = _stdout_report(capsys)
    assert rep["schema"] == "gptcone/1"
    assert rep["class"] == "BQ"
    assert rep["lambda1"] == pytest.approx(-0.5, abs=1e-9)
    assert rep["lambda_d"] == pytest.approx(1.5, abs=1e-9)
    assert rep["witnesses"]["perfect_pair"]["overlap"] == \
        pytest.approx(0.75, abs=1e-9)


def test_classify_povm(tmp_path, capsys):
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(measurement_to_json([p, np.eye(4) - p])))
    assert cli.run(["classify-dovm", str(path), "--dims", "2x2"]) == 0
    rep = _stdout_report(capsys)
    assert rep["class"] == "POVM"
    assert rep["witnesses"] == {}


def test_classify_bad_dims(tmp_path, capsys):
    path = _write_fixture_measurement(tmp_path)
    assert cli.run(["classify-dovm", path, "--dims", "3x3"]) == 1


def test_discriminate(tmp_path, capsys):
    fx = build_fixtures()
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, fx["rho1"])
    save_matrix(p2, fx["rho2"])
    assert cli.run(["discriminate", str(p1), str(p2)]) == 0
    rep = _stdout_report(capsys)
    overlap = 0.25
    expected = 1.0 - np.sqrt(1.0 - overlap)
    assert rep["helstrom_error"] == pytest.approx(expected, abs=1e-9)
    assert len(rep["helstrom_measurement"]) == 2


def test_discriminate_with_cone(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, np.diag([1.0, 0.0, 0.0, 0.0]))  # |00><00|
    save_matrix(p2, np.diag([0.0, 0.0, 0.0, 1.0]))  # |11><11|
    cone_path = tmp_path / "cone.json"
    gens = [np.diag(row).astype(complex) for row in np.eye(4)]
    cone_path.write_text(json.dumps({
        "tag": None, "params": {}, "dim": 4, "dims": [2, 2],
        "generators": [json.loads(json.dumps(
            {"dim": 4,
             "re": g.real.tolist(),
             "im": g.imag.tolist()})) for g in gens],
        "dual_generators": [],
    }))
    rc = cli.run(["discriminate", str(p1), str(p2),
                  "--cone", str(cone_path)])
    assert rc == 0
    rep = _stdout_report(capsys)
    assert rep["helstrom_error"] == pytest.approx(0.0, abs=1e-9)
    assert rep["cone_error"] == pytest.approx(0.0, abs=1e-7)
    assert rep["cone_check"]


def test_discriminate_with_a_sep_dual_cone(tmp_path, capsys):
    fx = build_fixtures()
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, fx["rho1"])
    save_matrix(p2, fx["rho2"])
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(json.dumps({"tag": "SEP_DUAL", "dims": [2, 2]}))
    assert cli.run(["discriminate", str(p1), str(p2),
                    "--cone", str(cone_path)]) == 0
    rep = _stdout_report(capsys)
    assert rep["cone_error"] <= rep["helstrom_error"] + 1e-9
    # The block-positive pair e1, e2 of the fixture tells them apart.
    assert rep["cone_error"] == pytest.approx(0.0, abs=1e-7)
    assert rep["cone_check"]


def test_discriminate_rejects_a_halfspace_only_cone(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, np.diag([1.0, 0.0]))
    save_matrix(p2, np.diag([0.0, 1.0]))
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(json.dumps({
        "tag": None, "dim": 2,
        "dual_generators": [{"dim": 2, "re": np.eye(2).tolist(),
                             "im": np.zeros((2, 2)).tolist()}],
    }))
    assert cli.run(["discriminate", str(p1), str(p2),
                    "--cone", str(cone_path)]) == 1
    assert "halfspace-only" in capsys.readouterr().err


def test_build_pses_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.run(["build-pses", "--r", "0.1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["pass"]
    assert rep["audit"]["pass"]
    assert rep["eps"] == pytest.approx(2.0 * np.sqrt(0.2 / 1.2), abs=1e-12)
    assert rep["discrimination_example"]["overlap"] == \
        pytest.approx(0.1527777777777778, abs=1e-9)


def test_build_pses_fail_past_threshold(capsys):
    assert cli.run(["build-pses", "--r", "0.3"]) == 2
    rep = _stdout_report(capsys)
    assert not rep["pass"]
    assert "discrimination_example" not in rep


def test_build_pses_needs_exactly_one_parameter(capsys):
    assert cli.run(["build-pses"]) == 1
    assert cli.run(["build-pses", "--r", "0.1", "--eps", "0.5"]) == 1


def test_build_pses_eps_form(capsys):
    eps = 2.0 * np.sqrt(0.2 / 1.2)
    assert cli.run(["build-pses", "--eps", str(eps)]) == 0
    rep = _stdout_report(capsys)
    assert rep["r"] == pytest.approx(0.1, abs=1e-12)


def test_simulability_fixture(tmp_path, capsys):
    path = _write_fixture_measurement(tmp_path)
    assert cli.run(["simulability", path]) == 0
    rep = _stdout_report(capsys)
    assert rep["status"] == "NonSimulable"
    assert rep["n_copy_overlaps"] == pytest.approx(
        [0.75, 0.75**2, 0.75**3], abs=1e-12)


def test_simulability_shrunk_bloch(capsys):
    assert cli.run(["simulability", "--shrunk-bloch", "0.5"]) == 0
    rep = _stdout_report(capsys)
    assert rep["overlap"] == pytest.approx(0.375, abs=1e-12)
    assert rep["pass"]


def test_simulability_povm_fails(tmp_path, capsys):
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(measurement_to_json([p, np.eye(4) - p])))
    assert cli.run(["simulability", str(path)]) == 2
    rep = _stdout_report(capsys)
    assert rep["status"] == "Inconclusive"


def test_simulability_needs_one_source(tmp_path, capsys):
    path = _write_fixture_measurement(tmp_path)
    assert cli.run(["simulability"]) == 1
    assert cli.run(["simulability", path, "--shrunk-bloch", "0.5"]) == 1


def test_symmetry_two_symmetry(capsys):
    assert cli.run(["symmetry", "--check", "two-symmetry"]) == 0
    rep = _stdout_report(capsys)
    assert rep["pair_one_overlap"] == pytest.approx(0.25, abs=1e-10)
    assert rep["pass"]


def test_symmetry_ses_orbit(capsys):
    assert cli.run(["symmetry", "--check", "ses-orbit"]) == 0
    rep = _stdout_report(capsys)
    assert rep["pass"]


def test_verify_appendix(capsys):
    assert cli.run(["verify-appendix"]) == 0
    rep = _stdout_report(capsys)
    assert rep["pass"]
    assert all(c["ok"] for c in rep["checks"].values())


def test_verify_all_fast(capsys):
    assert cli.run(["verify-all", "--fast"]) == 0
    rep = _stdout_report(capsys)
    assert rep["pass"]


def test_usage_errors(capsys):
    assert cli.run(["no-such-command"]) == 1
    assert cli.run([]) == 1
    assert cli.run(["discriminate", "/nonexistent/a.json",
                    "/nonexistent/b.json"]) == 1


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GPTCONE_SEED", "12345")
    assert cli.run(["symmetry", "--check", "ses-orbit"]) == 0
    rep = _stdout_report(capsys)
    assert rep["pass"]


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    path = _write_fixture_measurement(tmp_path)
    assert cli.run(["classify-dovm", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["class"] == "BQ"


def test_verify_appendix_keeps_report_when_a_check_raises(capsys, monkeypatch):
    def broken():
        raise ValidationError("fixture drifted")

    monkeypatch.setattr(cli, "entropy_example_audit", broken)
    assert cli.run(["verify-appendix"]) == 2
    rep = _stdout_report(capsys)
    assert not rep["pass"]
    assert rep["checks"]["entropy_example"] == {"ok": False,
                                                "error": "fixture drifted"}
    assert rep["checks"]["two_symmetry"]["ok"]


def test_verify_all_keeps_report_when_a_check_raises(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValidationError("solve did not converge")

    monkeypatch.setattr(cli.pses, "hierarchy_audit", broken)
    assert cli.run(["verify-all", "--fast"]) == 2
    rep = _stdout_report(capsys)
    assert rep["checks"]["hierarchy"]["ok"] is False
    assert rep["checks"]["duality_identity"]["ok"]


def _raise_validation(*args, **kwargs):
    raise ValidationError("check failed")


def test_symmetry_keeps_report_when_the_check_raises(capsys, monkeypatch):
    monkeypatch.setattr(cli.symmetry, "two_symmetry_counterexample",
                        _raise_validation)
    assert cli.run(["symmetry", "--check", "two-symmetry"]) == 2
    rep = _stdout_report(capsys)
    assert rep["check"] == "two-symmetry"
    assert rep["two-symmetry"] == {"ok": False, "error": "check failed"}
    assert rep["pass"] is False


def test_build_pses_keeps_report_when_the_check_raises(capsys, monkeypatch):
    monkeypatch.setattr(cli.pses, "dist_example", _raise_validation)
    assert cli.run(["build-pses", "--r", "0.1"]) == 2
    rep = _stdout_report(capsys)
    assert rep["audit"]["pass"]
    assert rep["discrimination_example"] == {"ok": False,
                                             "error": "check failed"}
    assert rep["pass"] is False


def test_simulability_keeps_report_when_the_check_raises(tmp_path, capsys,
                                                         monkeypatch):
    path = _write_fixture_measurement(tmp_path)
    monkeypatch.setattr(cli.simulability, "non_simulability_certificate",
                        _raise_validation)
    assert cli.run(["simulability", path]) == 2
    rep = _stdout_report(capsys)
    assert rep["certificate"] == {"ok": False, "error": "check failed"}
    assert rep["pass"] is False


def test_input_errors_still_exit_one(tmp_path, capsys):
    assert cli.run(["build-pses", "--eps", "-1"]) == 1
    assert cli.run(["simulability", "--shrunk-bloch", "1.5"]) == 1
    assert cli.run(["simulability", str(tmp_path / "missing.json")]) == 1
    m1 = np.diag([-0.5, 1.0, 1.0, 1.0])
    path = tmp_path / "not_block_positive.json"
    path.write_text(json.dumps(measurement_to_json([m1, np.eye(4) - m1])))
    assert cli.run(["simulability", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_jsonify_writes_non_hermitian_square_arrays(bell_state, dims22):
    rep = symmetry.gu_falsifier(partial_transpose(bell_state, dims22), dims22)
    out = json.loads(json.dumps(cli._jsonify(rep)))
    U = np.array(out["unitary"]["re"]) + 1j * np.array(out["unitary"]["im"])
    assert np.allclose(U, rep["unitary"], atol=1e-15)
    assert np.allclose(U @ U.conj().T, np.eye(4))


def test_classify_prime_dimension_needs_dims(tmp_path, capsys):
    p = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "povm5.json"
    path.write_text(json.dumps(measurement_to_json([p, np.eye(5) - p])))
    assert cli.run(["classify-dovm", str(path)]) == 1
    assert "--dims" in capsys.readouterr().err
    assert cli.run(["classify-dovm", str(path), "--dims", "1x5"]) == 0


def test_discriminate_rejects_unknown_cone_tag(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, np.diag([1.0, 0.0]))
    save_matrix(p2, np.diag([0.0, 1.0]))
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(json.dumps({"tag": "psd", "dim": 2}))
    assert cli.run(["discriminate", str(p1), str(p2),
                    "--cone", str(cone_path)]) == 1
    assert "unknown cone tag" in capsys.readouterr().err


def test_discriminate_rejects_a_named_cone_with_halfspaces(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_matrix(p1, np.diag([1.0, 0.0]))
    save_matrix(p2, np.diag([0.0, 1.0]))
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(json.dumps({
        "tag": "PSD", "dim": 2,
        "dual_generators": [{"dim": 2, "re": np.diag([1.0, -1.0]).tolist(),
                             "im": np.zeros((2, 2)).tolist()}],
    }))
    assert cli.run(["discriminate", str(p1), str(p2),
                    "--cone", str(cone_path)]) == 1
    assert "halfspaces" in capsys.readouterr().err
