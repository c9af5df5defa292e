import json
import math

import numpy as np
import pytest

from sectorlab.cli import main, matrix_to_payload, payload_to_matrix
from sectorlab.serialize import to_json


def write_matrix(path, mat):
    path.write_text(to_json(matrix_to_payload(np.asarray(mat, dtype=complex))) + "\n")
    return str(path)


@pytest.fixture
def diag_files(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.diag([1.0, 4.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([9.0, 1.0]))
    return a, b


def read_stdout_matrix(capsys):
    doc = json.loads(capsys.readouterr().out)
    return payload_to_matrix(doc), doc


# --------------------------------------------------------------------- mean


def test_mean_geom_diag(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b])
    assert rc == 0
    mat, doc = read_stdout_matrix(capsys)
    np.testing.assert_allclose(mat, np.diag([3.0, 2.0]), atol=1e-10)
    assert doc["meta"]["lambda"] == 0.5
    assert doc["meta"]["nodes_used"] == 64


def test_mean_drury_scaled_identity(tmp_path, capsys):
    a = write_matrix(tmp_path / "i.json", np.eye(2))
    b = write_matrix(tmp_path / "4i.json", 4.0 * np.eye(2))
    rc = main(["mean", "--kind", "drury", "--a", a, "--b", b])
    assert rc == 0
    mat, _ = read_stdout_matrix(capsys)
    np.testing.assert_allclose(mat, 2.0 * np.eye(2), atol=1e-9)


def test_mean_arith_and_harm(diag_files, capsys):
    a, b = diag_files
    assert main(["mean", "--kind", "arith", "--lambda", "0.25", "--a", a, "--b", b]) == 0
    mat, doc = read_stdout_matrix(capsys)
    np.testing.assert_allclose(mat, np.diag([3.0, 3.25]), atol=1e-14)
    assert doc["meta"]["nodes_used"] is None
    assert main(["mean", "--kind", "harm", "--lambda", "0.5", "--a", a, "--b", b]) == 0


def test_mean_bad_lambda_exits_2(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "1.5", "--a", a, "--b", b])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--lambda" in err


def test_mean_missing_lambda_exits_2(diag_files, capsys):
    a, b = diag_files
    assert main(["mean", "--kind", "geom", "--a", a, "--b", b]) == 2


def test_mean_drury_rejects_other_lambda(diag_files):
    a, b = diag_files
    assert main(["mean", "--kind", "drury", "--lambda", "0.3", "--a", a, "--b", b]) == 2
    assert main(["mean", "--kind", "drury", "--lambda", "0.5", "--a", a, "--b", b]) == 0


def test_mean_rejects_non_accretive_without_escape(tmp_path, capsys):
    a = write_matrix(tmp_path / "neg.json", -np.eye(2))
    b = write_matrix(tmp_path / "id.json", np.eye(2))
    rc = main(["mean", "--kind", "arith", "--lambda", "0.5", "--a", a, "--b", b])
    assert rc == 2
    rc = main(["mean", "--kind", "arith", "--lambda", "0.5", "--a", a, "--b", b, "--no-validate"])
    assert rc == 0
    capsys.readouterr()


def test_mean_adaptive_metadata(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
               "--adaptive", "--tol", "1e-10"])
    assert rc == 0
    _, doc = read_stdout_matrix(capsys)
    assert doc["meta"]["nodes_used"] >= 32
    assert doc["meta"]["error_estimate"] <= 1e-10


@pytest.mark.parametrize("argv", [
    ["mean", "--kind", "geom", "--lambda", "0.3"],
    ["mean", "--kind", "drury"],
    ["entropy", "--kind", "relative"],
    ["entropy", "--kind", "tsallis", "--lambda", "0.3"],
])
def test_integral_metadata_fixed_and_adaptive(diag_files, capsys, argv):
    a, b = diag_files
    argv = argv + ["--a", a, "--b", b]
    assert main(argv + ["--nodes", "32"]) == 0
    fixed, doc = read_stdout_matrix(capsys)
    assert doc["meta"]["nodes_used"] == 32
    assert doc["meta"]["error_estimate"] is None
    assert main(argv + ["--adaptive", "--tol", "1e-10"]) == 0
    adaptive, doc = read_stdout_matrix(capsys)
    assert doc["meta"]["nodes_used"] >= 32
    # tol is absolute for the means, relative to ||A||_F (here > 1) for the entropies
    assert 0.0 <= doc["meta"]["error_estimate"] <= 1e-10 * math.hypot(1.0, 4.0)
    np.testing.assert_allclose(adaptive, fixed, atol=1e-8)


def test_mean_nonconvergent_adaptive_exits_3(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
               "--adaptive", "--tol", "1e-30"])
    assert rc == 3
    assert capsys.readouterr().err != ""


def test_mean_out_file(diag_files, tmp_path):
    a, b = diag_files
    out = tmp_path / "result.json"
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(payload_to_matrix(doc), np.diag([3.0, 2.0]), atol=1e-10)


# ------------------------------------------------------------------ entropy


def test_entropy_relative_scalar(tmp_path, capsys):
    a = write_matrix(tmp_path / "one.json", np.array([[1.0]]))
    b = write_matrix(tmp_path / "e.json", np.array([[math.e]]))
    rc = main(["entropy", "--kind", "relative", "--a", a, "--b", b])
    assert rc == 0
    mat, _ = read_stdout_matrix(capsys)
    assert mat[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_entropy_tsallis_scalar(tmp_path, capsys):
    a = write_matrix(tmp_path / "one.json", np.array([[1.0]]))
    b = write_matrix(tmp_path / "four.json", np.array([[4.0]]))
    rc = main(["entropy", "--kind", "tsallis", "--lambda", "0.5", "--a", a, "--b", b])
    assert rc == 0
    mat, _ = read_stdout_matrix(capsys)
    assert mat[0, 0].real == pytest.approx(2.0, abs=1e-10)


def test_entropy_tsallis_requires_lambda(tmp_path, capsys):
    a = write_matrix(tmp_path / "one.json", np.array([[1.0]]))
    b = write_matrix(tmp_path / "four.json", np.array([[4.0]]))
    assert main(["entropy", "--kind", "tsallis", "--a", a, "--b", b]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------- rule


def test_rule_legendre_one_node(capsys):
    assert main(["rule", "--kind", "legendre", "--nodes", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == [0.5]
    assert doc["weights"] == [1.0]


def test_rule_jacobi_weight_sum(capsys):
    assert main(["rule", "--kind", "jacobi", "--lambda", "0.5", "--nodes", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weight_sum"] == pytest.approx(math.pi, rel=1e-11)


def test_rule_jacobi_requires_lambda(capsys):
    assert main(["rule", "--kind", "jacobi", "--nodes", "8"]) == 2
    capsys.readouterr()


def test_rule_bad_flags(capsys):
    assert main(["rule", "--kind", "unknown"]) == 2
    assert main(["rule", "--kind", "legendre", "--nodes", "0"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- verify


def test_verify_small_run(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--dim", "2", "--trials", "3", "--seed", "7",
               "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert len(doc["reports"]) == 9
    assert doc["spec"]["dim"] == 2
    capsys.readouterr()


def test_verify_only_single_property(tmp_path):
    report = tmp_path / "single.json"
    rc = main(["verify", "--only", "check_symmetry", "--trials", "1",
               "--dim", "2", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert [r["property_id"] for r in doc["reports"]] == ["check_symmetry"]


def test_verify_angle_out_of_range(capsys):
    assert main(["verify", "--angle", "1.2", "--trials", "1"]) == 2
    capsys.readouterr()


def test_verify_unknown_property(capsys):
    assert main(["verify", "--only", "check_nothing", "--trials", "1"]) == 2
    capsys.readouterr()


def test_verify_bad_lambda_csv(capsys):
    assert main(["verify", "--lambdas", "0.1,oops", "--trials", "1"]) == 2
    assert main(["verify", "--lambdas", "0.1,1.5", "--trials", "1"]) == 2
    capsys.readouterr()


def test_verify_search_success_keeps_exit_zero(tmp_path, capsys):
    report = tmp_path / "search.json"
    rc = main(["verify", "--only", "search_agh_counterexample", "--dim", "2",
               "--trials", "20", "--seed", "0", "--angle", "0.49",
               "--lambdas", "0.5", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["reports"][0]["violations"] >= 1
    capsys.readouterr()


def test_verify_violations_exit_code(monkeypatch, tmp_path, capsys):
    import sectorlab.cli as cli
    from sectorlab.verify import DEFAULT_TOLERANCE, PropertyReport

    fake = PropertyReport("check_symmetry", 2, 1, -1.0, 0, DEFAULT_TOLERANCE)
    monkeypatch.setattr(cli, "run_all", lambda spec: [fake])
    rc = main(["verify", "--trials", "2", "--report", str(tmp_path / "r.json")])
    assert rc == 1
    capsys.readouterr()


def test_verify_stdout_report_is_clean_json(capsys):
    rc = main(["verify", "--only", "check_symmetry", "--trials", "1", "--dim", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["reports"][0]["property_id"] == "check_symmetry"


# --------------------------------------------------------------- round trip


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat *= math.pi  # non-representable decimals
    path = tmp_path / "m.json"
    path.write_text(to_json(matrix_to_payload(mat)))
    doc = json.loads(path.read_text())
    back = payload_to_matrix(doc)
    assert np.array_equal(back, mat)


def test_floats_read_back_identically():
    for x in (1e5, 1e-7, -0.0, 5e-324, -math.pi):
        back = float(json.loads(to_json([x]))[0])
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def test_matrix_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]}')
    assert main(["mean", "--kind", "arith", "--lambda", "0.5",
                 "--a", str(bad), "--b", str(bad)]) == 2
    nonfinite = tmp_path / "inf.json"
    nonfinite.write_text('{"dim": 1, "entries": [[[1e999, 0]]]}')
    assert main(["mean", "--kind", "arith", "--lambda", "0.5",
                 "--a", str(nonfinite), "--b", str(nonfinite)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["mean", "--kind", "arith", "--lambda", "0.5",
                 "--a", str(missing), "--b", str(missing)]) == 2
    # JSON true is a Python int, but not a dimension
    flag = tmp_path / "bool.json"
    flag.write_text('{"dim": true, "entries": [[[1, 0]]]}')
    assert main(["mean", "--kind", "arith", "--lambda", "0.5",
                 "--a", str(flag), "--b", str(flag)]) == 2


def test_unwritable_output_exits_2(diag_files, tmp_path, capsys):
    a, b = diag_files
    missing = str(tmp_path / "no-such-dir" / "out.json")
    assert main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
                 "--out", missing]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert main(["verify", "--trials", "1", "--report", missing]) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err and captured.out == ""


def test_payload_rejects_oversized():
    with pytest.raises(Exception):
        payload_to_matrix({"dim": 65, "entries": [[[0.0, 0.0]] * 65] * 65})
