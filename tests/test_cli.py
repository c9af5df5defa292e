import json
import math

import numpy as np
import pytest

import sectorlab as sl
from conftest import LADDER
from sectorlab.cli import main, matrix_to_payload, payload_to_matrix
from sectorlab.quadrature import QuadratureConfig
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
    # the library's automatic count, with its estimate
    assert doc["meta"]["nodes_used"] in LADDER
    assert doc["meta"]["error_estimate"] is not None


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


@pytest.mark.parametrize("argv", [
    ["mean", "--kind", "geom", "--lambda", "0.3", "--adaptive"],
    ["entropy", "--kind", "relative", "--adaptive"],
    ["mean", "--kind", "harm", "--lambda", "0.3"],
    ["mean", "--kind", "arith", "--lambda", "0.3"],
])
def test_nodes_flag_outside_a_fixed_rule_exits_2(diag_files, capsys, argv):
    # --nodes sets the fixed rule of an integral; where there is none, an
    # explicit --nodes is a usage error, even at its default value
    a, b = diag_files
    for nodes in ("5000", "64"):
        assert main(argv + ["--a", a, "--b", b, "--nodes", nodes]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --nodes sets the fixed rule of an integral and does not apply ")
    assert main(argv + ["--a", a, "--b", b]) == 0


@pytest.mark.parametrize("argv", [
    ["mean", "--kind", "geom", "--lambda", "0.3", "--nodes", "32"],
    ["entropy", "--kind", "relative", "--nodes", "32"],
    ["mean", "--kind", "harm", "--lambda", "0.3"],
    ["mean", "--kind", "arith", "--lambda", "0.3"],
])
def test_tol_flag_without_adaptive_exits_2(diag_files, capsys, argv):
    # --tol is the error bound of the automatic count, with or without
    # --adaptive.  A fixed rule and a closed form have no such count, so there
    # an explicit --tol is a usage error, even at its default value or below
    # the rounding floor.  On the default rule a --tol below the floor exits 3.
    a, b = diag_files
    argv = argv + ["--a", a, "--b", b]
    message = ("error: --nodes sets the fixed rule of an integral and does not apply with --tol\n"
               if "--nodes" in argv else
               f"error: --tol sets the error bound of an integral and does not apply to --kind {argv[2]}\n")
    for tol in ("1e-30", "1e-12", "1e-6"):
        assert main(argv + ["--tol", tol]) == 2
        assert capsys.readouterr() == ("", message)
    assert main(argv) == 0
    capsys.readouterr()
    if "--nodes" in argv:
        default = argv[:argv.index("--nodes")] + argv[argv.index("--nodes") + 2:]
        assert main(default + ["--tol", "1e-30"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert main(default + ["--tol", "1e-6"]) == 0


@pytest.mark.parametrize("kind", ["harm", "arith"])
def test_adaptive_flag_for_a_closed_form_exits_2(diag_files, capsys, kind):
    # a closed form has no rule for --adaptive to choose: with or without --tol,
    # even one below the rounding floor, the flag is a usage error
    a, b = diag_files
    argv = ["mean", "--kind", kind, "--lambda", "0.3", "--a", a, "--b", b, "--adaptive"]
    for extra in ([], ["--tol", "1e-30"], ["--tol", "1e-6"]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == (
            "", f"error: --adaptive chooses the rule of an integral and does not apply to --kind {kind}\n")
    assert main(argv[:-1]) == 0


def test_mean_adaptive_metadata(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
               "--adaptive", "--tol", "1e-10"])
    assert rc == 0
    mat, doc = read_stdout_matrix(capsys)
    assert doc["meta"]["nodes_used"] in LADDER
    assert doc["meta"]["error_estimate"] <= 1e-10
    np.testing.assert_allclose(mat, np.diag([3.0, 2.0]), atol=1e-10)


A_DIAG, B_DIAG = np.diag([1.0, 4.0]), np.diag([9.0, 1.0])  # the pair of diag_files

#: --kind -> (its weight, the fixed-rule and the adaptive library call on A_DIAG, B_DIAG)
LIBRARY_CALLS = {
    "geom": (0.3, lambda cfg: sl.geometric_mean(A_DIAG, B_DIAG, 0.3, cfg),
             lambda tol, **cap: sl.geometric_mean_adaptive(A_DIAG, B_DIAG, 0.3, tol, **cap)),
    "drury": (0.5, lambda cfg: sl.drury_mean(A_DIAG, B_DIAG, cfg),
              lambda tol, **cap: sl.drury_mean_adaptive(A_DIAG, B_DIAG, tol, **cap)),
    "relative": (None, lambda cfg: sl.relative_entropy(A_DIAG, B_DIAG, cfg),
                 lambda tol, **cap: sl.relative_entropy_adaptive(A_DIAG, B_DIAG, tol, **cap)),
    "tsallis": (0.3, lambda cfg: sl.tsallis_entropy(A_DIAG, B_DIAG, 0.3, cfg),
                lambda tol, **cap: sl.tsallis_entropy_adaptive(A_DIAG, B_DIAG, 0.3, tol, **cap)),
}


@pytest.mark.parametrize("argv", [
    ["mean", "--kind", "geom", "--lambda", "0.3"],
    ["mean", "--kind", "drury"],
    ["entropy", "--kind", "relative"],
    ["entropy", "--kind", "tsallis", "--lambda", "0.3"],
])
def test_integral_metadata_fixed_and_adaptive(diag_files, capsys, argv):
    lam, fixed_call, adaptive_call = LIBRARY_CALLS[argv[2]]
    a, b = diag_files
    argv = argv + ["--a", a, "--b", b]
    assert main(argv + ["--nodes", "32"]) == 0
    fixed, doc = read_stdout_matrix(capsys)
    # entries and meta are the library's result, bit for bit
    assert fixed.tobytes() == fixed_call(QuadratureConfig(rule_nodes=32)).tobytes()
    assert doc["meta"] == {"lambda": lam, "nodes_used": 32, "error_estimate": None}
    assert main(argv + ["--adaptive", "--tol", "1e-10"]) == 0
    adaptive, doc = read_stdout_matrix(capsys)
    res = adaptive_call(1e-10)
    assert adaptive.tobytes() == res.value.tobytes()
    assert doc["meta"] == {"lambda": lam, "nodes_used": res.nodes_used,
                           "error_estimate": res.error_estimate}
    assert res.nodes_used in LADDER
    assert adaptive.tobytes() == fixed_call(QuadratureConfig(rule_nodes=res.nodes_used)).tobytes()
    # tol is relative to ||A||_F (here > 1) of the pair integrated; the means integrate A/||A||_F
    assert 0.0 <= res.error_estimate <= 1e-10 * math.hypot(1.0, 4.0)
    np.testing.assert_allclose(adaptive, fixed, atol=1e-8)
    # no rule flag, and --tol alone, take the library's default config with that
    # tol: entries and meta are the default call's and the *_adaptive call's at
    # the default cap of 512 nodes, bit for bit
    for tol, extra in ((1e-12, []), (1e-10, ["--tol", "1e-10"])):
        assert main(argv + extra) == 0
        auto, doc = read_stdout_matrix(capsys)
        assert auto.tobytes() == fixed_call(QuadratureConfig(tol=tol)).tobytes()
        res = adaptive_call(tol, max_nodes=512)
        assert auto.tobytes() == res.value.tobytes()
        assert doc["meta"] == {"lambda": lam, "nodes_used": res.nodes_used,
                               "error_estimate": res.error_estimate}


def test_mean_nonconvergent_adaptive_exits_3(diag_files, capsys):
    a, b = diag_files
    rc = main(["mean", "--kind", "geom", "--lambda", "0.5", "--a", a, "--b", b,
               "--adaptive", "--tol", "1e-30"])
    assert rc == 3
    assert capsys.readouterr().err != ""


def test_default_mean_at_a_wide_angle_is_within_its_estimate_or_exits_3(tmp_path, capsys):
    # At 0.99 pi/2 the default rule, the library's automatic count up to 512
    # nodes, either prints a mean within its error estimate (plus rounding) of
    # scipy's A (A^-1 B)^lam, or exits 3; where it exits 3, --adaptive's cap of
    # 4096 nodes answers.  The fixed 64-node rule is off by more than 1e-3 on
    # some of these pairs, with exit 0.
    from scipy.linalg import fractional_matrix_power

    angle, answered, worst_64 = 0.99 * (math.pi / 2), 0, 0.0
    argv = ["mean", "--kind", "geom", "--lambda", "0.5",
            "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")]
    for k in range(10):
        a = sl.random_accretive(sl.SectorSpec(3, angle, 100.0, 100 + k)).mat
        b = sl.random_accretive(sl.SectorSpec(3, angle, 100.0, 200 + k)).mat
        write_matrix(tmp_path / "a.json", a)
        write_matrix(tmp_path / "b.json", b)
        ref = a @ fractional_matrix_power(np.linalg.solve(a, b), 0.5)
        rc = main(argv)
        if rc == 3:
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert main(argv + ["--adaptive"]) == 0
        else:
            assert rc == 0
            answered += 1
        mean, doc = read_stdout_matrix(capsys)
        assert (doc["meta"]["nodes_used"] > 512) == (rc == 3)
        assert np.linalg.norm(mean - ref) <= doc["meta"]["error_estimate"] + 1e-13 * np.linalg.norm(ref)
        assert main(argv + ["--nodes", "64"]) == 0
        mean, _ = read_stdout_matrix(capsys)
        worst_64 = max(worst_64, np.linalg.norm(mean - ref) / np.linalg.norm(ref))
    assert answered > 0 and worst_64 > 1e-3


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


def test_verify_only_reports_an_error_as_the_full_run_does(tmp_path, capsys):
    # At this wide angle the relative entropy needs more than 512 nodes: alone,
    # as in the full run, the check reports status "error" and the run exits 1.
    spec = ["verify", "--trials", "50", "--seed", "7", "--angle", "0.97"]
    only, full = tmp_path / "only.json", tmp_path / "full.json"
    assert main([*spec, "--only", "check_re_geometric,check_re_relative_entropy",
                 "--report", str(only)]) == 1
    assert main([*spec, "--report", str(full)]) == 1
    assert capsys.readouterr() == ("", "")
    got = json.loads(only.read_text())["reports"]
    want = {r["property_id"]: r for r in json.loads(full.read_text())["reports"]}
    # the same serializer on equal entries: byte-identical text
    assert to_json(got[0]) == to_json(want["check_re_geometric"])
    assert got[1] == want["check_re_relative_entropy"]
    assert got[1]["status"] == "error"
    assert got[1]["detail"] == "NoConvergence: tol=1e-12 needs more than 512 nodes"


def test_verify_angle_out_of_range(capsys):
    assert main(["verify", "--angle", "1.2", "--trials", "1"]) == 2
    capsys.readouterr()


def test_verify_bad_seed_names_the_field(capsys):
    assert main(["verify", "--seed", "-1", "--trials", "1"]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


PAIR = ["--a", "a.json", "--b", "b.json"]
MEAN = ["mean", "--kind", "geom", "--lambda", "0.3"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["verify", "--trials", "0"], "trials must be an integer >= 1, got 0"),
    (["verify", "--dim", "65"], "dim must be an integer in [1, 64], got 65"),
    (["verify", "--lambdas", "0.1,1.5"], "lambda grid entries must lie in (0, 1), got 1.5"),
    (["verify", "--angle", "1.2"], "--angle is a fraction of pi/2 and must lie in [0, 1), got 1.2"),
    (["verify", "--lambdas", "0.1,oops"],
     "--lambdas must be a comma-separated float list: could not convert string to float: 'oops'"),
    (["verify", "--only", "check_symmetry,check_nothing"],
     "unknown property ids: check_nothing (known: check_bilinear, check_homogeneity, "
     "check_norm_inequality, check_re_geometric, check_re_harmonic, check_re_relative_entropy, "
     "check_re_tsallis, check_symmetry, check_vector_family, search_agh_counterexample)"),
    (["verify", "--trials", "1", "--report", "no-dir/r.json"],
     "cannot write no-dir/r.json: [Errno 2] No such file or directory: 'no-dir/r.json'"),
    (["rule", "--kind", "jacobi", "--nodes", "8"], "--lambda is required for this kind"),
    (["rule", "--kind", "jacobi", "--lambda", "1.5"], "--lambda must lie strictly inside (0, 1), got 1.5"),
    (["rule", "--kind", "legendre", "--nodes", "5000"],
     "InvalidNodeCount: node count must be an integer in [1, 4096], got 5000"),
    (["mean", "--kind", "geom", *PAIR], "--lambda is required for this kind"),
    (["mean", "--kind", "drury", "--lambda", "0.3", *PAIR],
     "drury is the lambda = 1/2 mean; omit --lambda or pass 0.5"),
    ([*MEAN, "--a", "nope.json", "--b", "b.json"],
     "cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    ([*MEAN, "--a", "text.json", "--b", "b.json"],
     "text.json: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ([*MEAN, "--a", "float-dim.json", "--b", "b.json"], '"dim" must be an integer in [1, 64], got 2.0'),
    ([*MEAN, "--a", "bool-dim.json", "--b", "b.json"], '"dim" must be an integer in [1, 64], got True'),
    ([*MEAN, "--a", "big-dim.json", "--b", "b.json"], '"dim" must be an integer in [1, 64], got 65'),
    ([*MEAN, "--a", "null.json", "--b", "b.json"], "entry (1, 1) must be a [re, im] pair of numbers"),
    ([*MEAN, "--a", "indefinite.json", "--b", "b.json"],
     "input validation failed: smallest eigenvalue of the real part is -1.000000e+00 "
     "(needs > 1e-10 * ||Re A|| = 1.000000e-10)"),
    ([*MEAN, *PAIR, "--out", "no-dir/x.json"],
     "cannot write no-dir/x.json: [Errno 2] No such file or directory: 'no-dir/x.json'"),
    ([*MEAN, *PAIR, "--adaptive", "--tol", "0"], "tol must be > 0, got 0.0"),
    ([*MEAN, *PAIR, "--tol", "inf"], "tol must be finite, got inf"),
    (["entropy", "--kind", "relative", "--lambda", "7", *PAIR], "--lambda does not apply to --kind relative"),
    (["rule", "--kind", "legendre", "--lambda", "9", "--nodes", "2"],
     "--lambda does not apply to --kind legendre"),
    (["verify", "--only", ""], "--only must name at least one property id"),
    (["verify", "--only", "check_symmetry,", "--trials", "1"],
     "--only holds an empty property id: 'check_symmetry,'"),
])
def test_usage_errors_print_one_line_and_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    # Every usage error takes main's one ValueError path: nothing on stdout, one
    # stderr line, exit 2.  The messages are pinned byte for byte.
    monkeypatch.chdir(tmp_path)
    files = {"a.json": '{"dim": 2, "entries": [[[2, 0], [0, 1]], [[0, 1], [2, 0]]]}',
             "b.json": '{"dim": 2, "entries": [[[1, 0], [1, 0]], [[-1, 0], [1, 0]]]}',
             "indefinite.json": '{"dim": 2, "entries": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
             "null.json": '{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [null, 0]]]}',
             "float-dim.json": '{"dim": 2.0, "entries": []}',
             "bool-dim.json": '{"dim": true, "entries": []}',
             "big-dim.json": '{"dim": 65, "entries": []}',
             "text.json": "not json"}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_warns_for_any_search_without_a_witness(monkeypatch, tmp_path, capsys):
    import sectorlab.cli as cli
    from sectorlab.verify import DEFAULT_TOLERANCE, PropertyReport

    quiet = PropertyReport("search_entropy_chain", 4, 0, 0.1, 0, DEFAULT_TOLERANCE,
                           status="warning")
    monkeypatch.setattr(cli, "run_all", lambda spec: [quiet])
    assert main(["verify", "--trials", "4", "--report", str(tmp_path / "r.json")]) == 0
    assert "found no violating pair in 4 trials" in capsys.readouterr().err


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


def test_parser_is_built_once_per_process(diag_files, capsys):
    # One process reuses one parser; every call writes what a call with a
    # freshly built parser writes.
    import sectorlab.cli as cli

    a, b = diag_files
    calls = [["verify", "--dim", "2", "--trials", "2"],
             ["mean", "--kind", "geom", "--lambda", "0.3", "--a", a, "--b", b],
             ["mean", "--kind", "cubic", "--a", a, "--b", b],
             ["verify", "--dim", "2", "--trials", "2"]]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert "invalid choice: 'cubic'" in fresh[2][2]


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
    # every float reads back as a float with the same bits, integral ones too
    for x in (1e5, 1e-7, -0.0, 5e-324, -math.pi, 0.0, 2.0, 1e16, 1e22):
        back = json.loads(to_json([x]))[0]
        assert type(back) is float and back.hex() == x.hex()
    # and so do strings, control characters and non-ASCII text included
    for text in ("tab\there", "cr\r", "\x01", 'quote " and \\', "line\nbreak", "π/2"):
        assert json.loads(to_json({"detail": text}))["detail"] == text
    # dict keys are escaped as well
    assert json.loads(to_json({"tab\tkey": 1})) == {"tab\tkey": 1}


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
    # an integer beyond the float range is a bad entry, not a crash
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}')
    assert main(["mean", "--kind", "arith", "--lambda", "0.5",
                 "--a", str(huge), "--b", str(huge)]) == 2


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
