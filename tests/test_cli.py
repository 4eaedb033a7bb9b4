"""CLI behavior: subcommands, exit-code triage, determinism plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import biherm
from biherm.cli import main
from biherm.matrixio import load_matrix, save_matrix
from biherm.triples import omega_from_g_j
from conftest import (
    NEAR_SINGULAR_H1,
    hermitian_pair_with_multiplicities,
    random_admissible_pair,
    random_spd,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    """Standard fixture set: metric, J, and a generic Hermitian pair."""
    paths = {
        "g": tmp_path / "g.json",
        "j": tmp_path / "j.json",
        "omega": tmp_path / "omega.json",
        "h1": tmp_path / "h1.json",
        "h2": tmp_path / "h2.json",
        "h2_degenerate": tmp_path / "h2d.json",
        "swap": tmp_path / "swap.json",
    }
    save_matrix(paths["g"], np.diag([1.0, 4.0]), "real_symmetric")
    save_matrix(paths["j"], J2, "real_general")
    save_matrix(paths["omega"], np.array([[0.0, 2.5], [-2.5, 0.0]]), "real_antisymmetric")
    save_matrix(paths["h1"], np.eye(2), "complex_hermitian")
    save_matrix(paths["h2"], np.diag([1.0, 2.0]), "complex_hermitian")
    save_matrix(paths["h2_degenerate"], 3.0 * np.eye(2), "complex_hermitian")
    save_matrix(paths["swap"], np.array([[0.0, 1.0], [1.0, 0.0]]), "complex_general")
    return {k: str(v) for k, v in paths.items()}


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestTripleCommand:
    def test_from_j(self, runner, files, tmp_path):
        out = str(tmp_path / "trip.json")
        result = invoke(runner, ["triple", "--g", files["g"], "--j", files["j"], "--out", out])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        bundle = json.loads(Path(out).read_text())
        assert np.allclose(
            np.reshape(bundle["g"]["data"], (2, 2)), np.diag([2.5, 2.5])
        )

    def test_from_omega(self, runner, files, tmp_path):
        out = str(tmp_path / "trip.json")
        result = invoke(
            runner, ["triple", "--g", files["g"], "--omega", files["omega"], "--out", out]
        )
        assert result.exit_code == 0

    def test_requires_exactly_one_source(self, runner, files, tmp_path):
        out = str(tmp_path / "trip.json")
        result = invoke(runner, ["triple", "--g", files["g"], "--out", out])
        assert result.exit_code == 2
        result = invoke(
            runner,
            ["triple", "--g", files["g"], "--j", files["j"], "--omega", files["omega"], "--out", out],
        )
        assert result.exit_code == 2

    def test_mathematically_bad_j_exits_one(self, runner, files, tmp_path):
        bad_j = tmp_path / "badj.json"
        save_matrix(bad_j, np.eye(2), "real_general")  # not a square root of -1
        result = invoke(
            runner, ["triple", "--g", files["g"], "--j", str(bad_j), "--out", str(tmp_path / "t.json")]
        )
        assert result.exit_code == 1

    def test_malformed_file_exits_two(self, runner, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "real_symmetric", "dim": 2, "data": [1, 2, 3]}')
        result = invoke(
            runner, ["triple", "--g", str(bad), "--j", files["j"], "--out", str(tmp_path / "t.json")]
        )
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_non_antisymmetric_omega_exits_two(self, runner, files, tmp_path):
        bad = tmp_path / "bad_omega.json"
        bad.write_text('{"kind": "real_antisymmetric", "dim": 2, "data": [0, 1, 1, 0]}')
        result = invoke(
            runner, ["triple", "--g", files["g"], "--omega", str(bad), "--out", str(tmp_path / "t.json")]
        )
        assert result.exit_code == 2
        assert f"error: {bad}: matrix is not antisymmetric within tolerance" in result.output

    @pytest.mark.parametrize("source", ["j", "omega"])
    def test_report_residuals_equal_file_meta(self, runner, tmp_path, source):
        rng = np.random.default_rng(7)
        g, j = random_admissible_pair(rng, 24)
        paths = {k: tmp_path / f"{k}.json" for k in ("g", "j", "omega", "trip")}
        save_matrix(paths["g"], random_spd(rng, 24), "real_symmetric")
        save_matrix(paths["j"], j.mat, "real_general")
        save_matrix(paths["omega"], omega_from_g_j(g, j).gram, "real_antisymmetric")
        args = ["triple", "--g", str(paths["g"]), f"--{source}", str(paths[source]), "--out", str(paths["trip"])]
        result = invoke(runner, args)
        assert result.exit_code == 0
        residuals = json.loads(result.output)["results"]["residuals"]
        assert set(residuals) == {"j_squared", "anti_hermitian", "omega_link"}
        assert max(residuals.values()) > 0.0
        assert residuals == json.loads(paths["trip"].read_text())["meta"]["residuals"]

    def test_integer_beyond_double_range_exits_two(self, runner, files, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"kind": "real_symmetric", "dim": 1, "data": [1' + "0" * 400 + "]}")
        result = invoke(
            runner, ["triple", "--g", str(huge), "--j", files["j"], "--out", str(tmp_path / "t.json")]
        )
        assert result.exit_code == 2
        assert "data[0]: integer too large for a double" in result.output


class TestPipeline:
    def test_triple_hermitian_connect_chain(self, runner, files, tmp_path):
        trip = str(tmp_path / "trip.json")
        herm = str(tmp_path / "herm.json")
        g_out = str(tmp_path / "G.json")
        assert invoke(runner, ["triple", "--g", files["g"], "--j", files["j"], "--out", trip]).exit_code == 0
        assert invoke(runner, ["hermitian", "--triple", trip, "--out", herm]).exit_code == 0
        kind, h = load_matrix(herm)
        assert kind == "complex_hermitian"
        assert np.allclose(h, [[2.5]])
        result = invoke(runner, ["connect", "--h1", herm, "--h2", herm, "--out", g_out])
        assert result.exit_code == 0
        _, g_mat = load_matrix(g_out)
        assert np.allclose(g_mat, np.eye(1))

    def test_connect_reports_residuals(self, runner, files, tmp_path):
        out = str(tmp_path / "G.json")
        result = invoke(runner, ["connect", "--h1", files["h1"], "--h2", files["h2"], "--out", out])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["results"]["residuals"]["defining"] <= 1e-10
        _, g_mat = load_matrix(out)
        assert np.allclose(g_mat, np.diag([1.0, 2.0]))

    def test_connect_computes_residuals_once(self, runner, files, tmp_path, monkeypatch):
        from biherm.connecting import ConnectingOperator

        calls = []
        original = ConnectingOperator.invariant_residuals

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ConnectingOperator, "invariant_residuals", counted)
        out = str(tmp_path / "G.json")
        result = invoke(runner, ["connect", "--h1", files["h1"], "--h2", files["h2"], "--out", out])
        assert result.exit_code == 0
        assert len(calls) == 1


    def test_numerically_singular_h1_exits_one_naming_h1(self, runner, files, tmp_path):
        h1 = tmp_path / "h1_singular.json"
        save_matrix(h1, NEAR_SINGULAR_H1, "complex_hermitian")
        out = tmp_path / "G.json"
        result = invoke(runner, ["connect", "--h1", str(h1), "--h2", files["h1"], "--out", str(out)])
        assert result.exit_code == 1
        (line,) = result.output.splitlines()
        assert line.startswith("analysis failed: h1 is numerically singular")
        assert not out.exists()


class TestSpectrumAndGeneric:
    def test_spectrum_generic_pair(self, runner, files):
        result = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", files["h2"]])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["results"]["eigenvalues"] == [1, 2]
        assert report["results"]["signature"] == "U(1)×U(1)"

    def test_spectrum_degenerate_pair(self, runner, files):
        result = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", files["h2_degenerate"]])
        report = json.loads(result.output)
        assert report["results"]["multiplicities"] == [2]
        assert report["results"]["signature"] == "U(2)"

    def test_generic_verdicts(self, runner, files):
        result = invoke(runner, ["generic", "--h1", files["h1"], "--h2", files["h2"]])
        assert result.exit_code == 0
        r = json.loads(result.output)["results"]
        assert r["generic_by_spectrum"] is True
        assert r["generic_by_commutant"] is True
        assert r["cyclic"] is True
        assert r["commutant_dimension"] == 2
        assert r["bicommutant_dimension"] == 2
        assert r["agreement"] is True

    def test_generic_on_degenerate_pair(self, runner, files):
        result = invoke(runner, ["generic", "--h1", files["h1"], "--h2", files["h2_degenerate"]])
        assert result.exit_code == 0
        r = json.loads(result.output)["results"]
        assert r["generic_by_spectrum"] is False
        assert r["commutant_dimension"] == 4
        assert r["bicommutant_dimension"] == 1

    def test_generic_on_degenerate_pair_at_n128(self, runner, tmp_path):
        # a Krylov rank overstates the cyclicity of such a pair; the
        # Lanczos Ritz-value count agrees with the other two verdicts
        mults = (1, 2, 1, 3, 1, 1, 4) * 9 + (2, 1, 1, 1, 2, 1, 1, 1, 1)
        h1, h2, _ = hermitian_pair_with_multiplicities(np.random.default_rng(31), mults)
        save_matrix(tmp_path / "h1.json", h1.gram, "complex_hermitian")
        save_matrix(tmp_path / "h2.json", h2.gram, "complex_hermitian")
        result = invoke(
            runner, ["generic", "--h1", str(tmp_path / "h1.json"), "--h2", str(tmp_path / "h2.json")]
        )
        assert result.exit_code == 0
        r = json.loads(result.output)["results"]
        assert r["cyclic"] is False
        assert r["agreement"] is True
        assert r["bicommutant_dimension"] == len(mults)


class TestDecomposeCommand:
    def test_fibers_reported(self, runner, files):
        result = invoke(runner, ["decompose", "--h1", files["h1"], "--h2", files["h2"]])
        assert result.exit_code == 0
        r = json.loads(result.output)["results"]
        assert [f["dim"] for f in r["fibers"]] == [1, 1]
        assert r["proportionality"]["passed"] is True
        assert r["all_fibers_unidimensional"] is True


class TestSampleAndVerify:
    def test_sample_then_verify(self, runner, files, tmp_path):
        u_path = str(tmp_path / "U.json")
        result = invoke(
            runner,
            ["sample-u", "--h1", files["h1"], "--h2", files["h2"], "--seed", "5", "--out", u_path],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["seed"] == 5
        result = invoke(
            runner, ["verify-u", "--u", u_path, "--h1", files["h1"], "--h2", files["h2"]]
        )
        assert result.exit_code == 0

    def test_sample_seed_determinism(self, runner, files, tmp_path):
        u_path = str(tmp_path / "u.json")
        args = ["sample-u", "--h1", files["h1"], "--h2", files["h2"], "--seed", "9", "--out", u_path]
        r1 = invoke(runner, args)
        first = Path(u_path).read_text()
        r2 = invoke(runner, args)
        assert r1.output == r2.output
        assert first == Path(u_path).read_text()

    def test_verify_rejects_swap(self, runner, files):
        result = invoke(
            runner, ["verify-u", "--u", files["swap"], "--h1", files["h1"], "--h2", files["h2"]]
        )
        assert result.exit_code == 1
        r = json.loads(result.output)["results"]
        assert r["h1_ok"] is True
        assert r["h2_ok"] is False


class TestCommonFlags:
    def test_text_format(self, runner, files):
        result = invoke(
            runner, ["spectrum", "--h1", files["h1"], "--h2", files["h2"], "--format", "text"]
        )
        assert result.exit_code == 0
        assert "results.signature = U(1)×U(1)" in result.output

    def test_quiet_suppresses_stdout(self, runner, files):
        result = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", files["h2"], "--quiet"])
        assert result.exit_code == 0
        assert result.output == ""

    def test_report_out_file(self, runner, files, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(
            runner, ["spectrum", "--h1", files["h1"], "--h2", files["h2"], "--out", str(out)]
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert json.loads(out.read_text())["command"] == "spectrum"

    def test_tol_eig_flag_changes_clustering(self, runner, files, tmp_path):
        h2 = tmp_path / "near.json"
        save_matrix(h2, np.diag([1.0, 1.0 + 1e-6]), "complex_hermitian")
        loose = invoke(
            runner,
            ["spectrum", "--h1", files["h1"], "--h2", str(h2), "--tol-eig", "1e-4"],
        )
        tight = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", str(h2)])
        assert json.loads(loose.output)["results"]["multiplicities"] == [2]
        assert json.loads(tight.output)["results"]["multiplicities"] == [1, 1]

    def test_env_var_sets_tol_eig_and_flag_wins(self, runner, files, tmp_path):
        h2 = tmp_path / "near.json"
        save_matrix(h2, np.diag([1.0, 1.0 + 1e-6]), "complex_hermitian")
        via_env = invoke(
            runner,
            ["spectrum", "--h1", files["h1"], "--h2", str(h2)],
            env={"BIHERM_TOL_EIG": "1e-4"},
        )
        assert json.loads(via_env.output)["results"]["multiplicities"] == [2]
        flag_wins = invoke(
            runner,
            ["spectrum", "--h1", files["h1"], "--h2", str(h2), "--tol-eig", "1e-8"],
            env={"BIHERM_TOL_EIG": "1e-4"},
        )
        assert json.loads(flag_wins.output)["results"]["multiplicities"] == [1, 1]

    def test_missing_file_is_usage_error(self, runner, files, tmp_path):
        result = runner.invoke(
            main, ["connect", "--h1", str(tmp_path / "nope.json"), "--h2", files["h2"], "--out", "x"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["connect", "spectrum"])  # an artifact and a report --out
    def test_unwritable_out_exits_two(self, runner, files, tmp_path, command):
        out = tmp_path / "missing_dir" / "out.json"
        result = invoke(runner, [command, "--h1", files["h1"], "--h2", files["h2"], "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: cannot write file: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_infinite_tol_eig_is_usage_error(self, runner, files, how):
        args = ["spectrum", "--h1", files["h1"], "--h2", files["h2"]]
        if how == "flag":
            result = invoke(runner, args + ["--tol-eig", "inf"])
        else:
            result = invoke(runner, args, env={"BIHERM_TOL_EIG": "inf"})
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith("Error: tol_eig must be finite\n")

    def test_huge_tol_eig_is_usage_error(self, runner, files):
        # 1e308 times the spectral radius 2 would print "cluster_gap": inf
        args = ["spectrum", "--h1", files["h1"], "--h2", files["h2"], "--tol-eig", "1e308"]
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
        assert errors == ["Error: tol_eig must be less than 1"]
        assert result.stderr.endswith("Error: tol_eig must be less than 1\n")

    def test_version_is_package_version(self, runner):
        result = invoke(runner, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"biherm, version {biherm.__version__}\n"


# Golden bytes: every subcommand in both formats plus the common flags and
# the two error exits.  Inputs are identity/diagonal forms and the 2x2 J,
# whose reports are exact in IEEE arithmetic, so the expected bytes hold on
# any LAPACK build.  sample-u draws a Haar block, so only its exit code and
# report keys are pinned.
GOLDEN_CASES = {
    "triple-j-json": ["triple", "--g", "g.json", "--j", "j.json", "--out", "trip.json"],
    "triple-j-text": ["triple", "--g", "g.json", "--j", "j.json", "--out", "trip.json", "--format", "text"],
    "triple-omega-json": ["triple", "--g", "g.json", "--omega", "omega.json", "--out", "trip_w.json"],
    "hermitian-json": ["hermitian", "--triple", "trip.json", "--out", "herm.json"],
    "hermitian-text": ["hermitian", "--triple", "trip.json", "--out", "herm.json", "--format", "text"],
    "connect-json": ["connect", "--h1", "h1.json", "--h2", "h2.json", "--out", "G.json"],
    "connect-text": ["connect", "--h1", "h1.json", "--h2", "h2.json", "--out", "G.json", "--format", "text"],
    "spectrum-json": ["spectrum", "--h1", "h1.json", "--h2", "h2.json"],
    "spectrum-text": ["spectrum", "--h1", "h1.json", "--h2", "h2.json", "--format", "text"],
    "generic-json": ["generic", "--h1", "h1.json", "--h2", "h2.json"],
    "generic-text": ["generic", "--h1", "h1.json", "--h2", "h2d.json", "--seed", "3", "--format", "text"],
    "decompose-json": ["decompose", "--h1", "h1.json", "--h2", "h2.json"],
    "decompose-text": ["decompose", "--h1", "h1.json", "--h2", "h2d.json", "--format", "text"],
    "sample-u-json": ["sample-u", "--h1", "h1.json", "--h2", "h2.json", "--seed", "5", "--out", "U.json"],
    "sample-u-text": ["sample-u", "--h1", "h1.json", "--h2", "h2.json", "--out", "U.json", "--format", "text"],
    "verify-u-json": ["verify-u", "--u", "diag.json", "--h1", "h1.json", "--h2", "h2.json"],
    "verify-u-text": ["verify-u", "--u", "swap.json", "--h1", "h1.json", "--h2", "h2.json", "--format", "text"],
    "quiet": ["connect", "--h1", "h1.json", "--h2", "h2.json", "--out", "G.json", "--quiet"],
    "report-out": ["spectrum", "--h1", "h1.json", "--h2", "h2.json", "--out", "report.json"],
    "bad-tol-eig": ["spectrum", "--h1", "h1.json", "--h2", "h2.json", "--tol-eig", "0"],
    "malformed": ["triple", "--g", "bad.json", "--j", "j.json", "--out", "trip.json"],
}

GOLDEN_ARTIFACTS = ("trip.json", "trip_w.json", "herm.json", "G.json", "report.json")


def _golden_outcomes(tmp_path, monkeypatch) -> tuple[dict, dict]:
    """Run GOLDEN_CASES in order from ``tmp_path``; return outcomes and artifacts."""
    monkeypatch.chdir(tmp_path)
    save_matrix("g.json", np.diag([1.0, 4.0]), "real_symmetric")
    save_matrix("j.json", J2, "real_general")
    save_matrix("omega.json", np.array([[0.0, 2.5], [-2.5, 0.0]]), "real_antisymmetric")
    save_matrix("h1.json", np.eye(2), "complex_hermitian")
    save_matrix("h2.json", np.diag([1.0, 2.0]), "complex_hermitian")
    save_matrix("h2d.json", 3.0 * np.eye(2), "complex_hermitian")
    save_matrix("swap.json", np.array([[0.0, 1.0], [1.0, 0.0]]), "complex_general")
    save_matrix("diag.json", np.diag([1j, -1.0]), "complex_general")
    (tmp_path / "bad.json").write_text('{"kind": "real_symmetric", "dim": 2, "data": [1, 2, 3]}')
    runner = CliRunner()
    outcomes = {}
    for name, argv in GOLDEN_CASES.items():
        result = runner.invoke(main, argv)
        if argv[0] == "sample-u":
            if "--format" in argv:
                keys = [line.partition(" = ")[0] for line in result.stdout.splitlines()]
            else:
                report = json.loads(result.stdout)
                keys = sorted(report) + sorted(f"results.{k}" for k in report["results"])
            outcomes[name] = (result.exit_code, keys, result.stderr)
        else:
            outcomes[name] = (result.exit_code, result.stdout, result.stderr)
    artifacts = {name: (tmp_path / name).read_text(encoding="utf-8") for name in GOLDEN_ARTIFACTS}
    return outcomes, artifacts


GOLDEN = {'triple-j-json': (0,
                   '{"command": "triple", "inputs": {"g": "g.json", "j": "j.json"}, "passed": '
                   'true, "results": {"dim": 2, "metric_min_eigenvalue": 2.5, "out": "trip.json", '
                   '"residuals": {"anti_hermitian": 0, "j_squared": 0, "omega_link": 0}}, '
                   '"tolerances": {"tol_eig": 1e-08, "tol_j": 1.0000000000000001e-09, "tol_resid": '
                   '1e-10, "tol_sym": 1e-10}}\n',
                   ''),
 'triple-j-text': (0,
                   'command = triple\n'
                   'inputs.g = g.json\n'
                   'inputs.j = j.json\n'
                   'passed = true\n'
                   'results.dim = 2\n'
                   'results.metric_min_eigenvalue = 2.5\n'
                   'results.out = trip.json\n'
                   'results.residuals.anti_hermitian = 0\n'
                   'results.residuals.j_squared = 0\n'
                   'results.residuals.omega_link = 0\n'
                   'tolerances.tol_eig = 1e-08\n'
                   'tolerances.tol_j = 1.0000000000000001e-09\n'
                   'tolerances.tol_resid = 1e-10\n'
                   'tolerances.tol_sym = 1e-10\n',
                   ''),
 'triple-omega-json': (0,
                       '{"command": "triple", "inputs": {"g": "g.json", "omega": "omega.json"}, '
                       '"passed": true, "results": {"dim": 2, "metric_min_eigenvalue": 1.25, '
                       '"out": "trip_w.json", "residuals": {"anti_hermitian": 0, "j_squared": 0, '
                       '"omega_link": 0}}, "tolerances": {"tol_eig": 1e-08, "tol_j": '
                       '1.0000000000000001e-09, "tol_resid": 1e-10, "tol_sym": 1e-10}}\n',
                       ''),
 'hermitian-json': (0,
                    '{"command": "hermitian", "inputs": {"triple": "trip.json"}, "passed": true, '
                    '"results": {"complex_dim": 1, "max_eigenvalue": 2.5, "min_eigenvalue": 2.5, '
                    '"out": "herm.json"}, "tolerances": {"tol_eig": 1e-08, "tol_j": '
                    '1.0000000000000001e-09, "tol_resid": 1e-10, "tol_sym": 1e-10}}\n',
                    ''),
 'hermitian-text': (0,
                    'command = hermitian\n'
                    'inputs.triple = trip.json\n'
                    'passed = true\n'
                    'results.complex_dim = 1\n'
                    'results.max_eigenvalue = 2.5\n'
                    'results.min_eigenvalue = 2.5\n'
                    'results.out = herm.json\n'
                    'tolerances.tol_eig = 1e-08\n'
                    'tolerances.tol_j = 1.0000000000000001e-09\n'
                    'tolerances.tol_resid = 1e-10\n'
                    'tolerances.tol_sym = 1e-10\n',
                    ''),
 'connect-json': (0,
                  '{"command": "connect", "inputs": {"h1": "h1.json", "h2": "h2.json"}, "passed": '
                  'true, "results": {"dim": 2, "ill_conditioned": false, "out": "G.json", '
                  '"residuals": {"defining": 0, "min_eigenvalue": 1, "selfadjoint_h1": 0, '
                  '"selfadjoint_h2": 0}}, "tolerances": {"tol_eig": 1e-08, "tol_j": '
                  '1.0000000000000001e-09, "tol_resid": 1e-10, "tol_sym": 1e-10}}\n',
                  ''),
 'connect-text': (0,
                  'command = connect\n'
                  'inputs.h1 = h1.json\n'
                  'inputs.h2 = h2.json\n'
                  'passed = true\n'
                  'results.dim = 2\n'
                  'results.ill_conditioned = false\n'
                  'results.out = G.json\n'
                  'results.residuals.defining = 0\n'
                  'results.residuals.min_eigenvalue = 1\n'
                  'results.residuals.selfadjoint_h1 = 0\n'
                  'results.residuals.selfadjoint_h2 = 0\n'
                  'tolerances.tol_eig = 1e-08\n'
                  'tolerances.tol_j = 1.0000000000000001e-09\n'
                  'tolerances.tol_resid = 1e-10\n'
                  'tolerances.tol_sym = 1e-10\n',
                  ''),
 'spectrum-json': (0,
                   '{"command": "spectrum", "inputs": {"h1": "h1.json", "h2": "h2.json"}, '
                   '"passed": true, "results": {"cluster_gap": 2e-08, "dim": 2, "eigenvalues": [1, '
                   '2], "multiplicities": [1, 1], "signature": "U(1)\\u00d7U(1)"}, "tolerances": '
                   '{"tol_eig": 1e-08, "tol_j": 1.0000000000000001e-09, "tol_resid": 1e-10, '
                   '"tol_sym": 1e-10}}\n',
                   ''),
 'spectrum-text': (0,
                   'command = spectrum\n'
                   'inputs.h1 = h1.json\n'
                   'inputs.h2 = h2.json\n'
                   'passed = true\n'
                   'results.cluster_gap = 2e-08\n'
                   'results.dim = 2\n'
                   'results.eigenvalues = [1, 2]\n'
                   'results.multiplicities = [1, 1]\n'
                   'results.signature = U(1)×U(1)\n'
                   'tolerances.tol_eig = 1e-08\n'
                   'tolerances.tol_j = 1.0000000000000001e-09\n'
                   'tolerances.tol_resid = 1e-10\n'
                   'tolerances.tol_sym = 1e-10\n',
                   ''),
 'generic-json': (0,
                  '{"command": "generic", "inputs": {"h1": "h1.json", "h2": "h2.json"}, "passed": '
                  'true, "results": {"agreement": true, "bicommutant_dimension": 2, '
                  '"commutant_dimension": 2, "cyclic": true, "generic_by_commutant": true, '
                  '"generic_by_spectrum": true, "signature": "U(1)\\u00d7U(1)"}, "seed": 0, '
                  '"tolerances": {"tol_eig": 1e-08, "tol_j": 1.0000000000000001e-09, "tol_resid": '
                  '1e-10, "tol_sym": 1e-10}}\n',
                  ''),
 'generic-text': (0,
                  'command = generic\n'
                  'inputs.h1 = h1.json\n'
                  'inputs.h2 = h2d.json\n'
                  'passed = true\n'
                  'results.agreement = true\n'
                  'results.bicommutant_dimension = 1\n'
                  'results.commutant_dimension = 4\n'
                  'results.cyclic = false\n'
                  'results.generic_by_commutant = false\n'
                  'results.generic_by_spectrum = false\n'
                  'results.signature = U(2)\n'
                  'seed = 3\n'
                  'tolerances.tol_eig = 1e-08\n'
                  'tolerances.tol_j = 1.0000000000000001e-09\n'
                  'tolerances.tol_resid = 1e-10\n'
                  'tolerances.tol_sym = 1e-10\n',
                  ''),
 'decompose-json': (0,
                    '{"command": "decompose", "inputs": {"h1": "h1.json", "h2": "h2.json"}, '
                    '"passed": true, "results": {"all_fibers_unidimensional": true, "fibers": '
                    '[{"dim": 1, "eigenvalue": 1, "weight": 0.5}, {"dim": 1, "eigenvalue": 2, '
                    '"weight": 0.5}], "proportionality": {"max_violation": [0, 0], "passed": '
                    'true}, "segments": {"1": [0, 1]}}, "tolerances": {"tol_eig": 1e-08, "tol_j": '
                    '1.0000000000000001e-09, "tol_resid": 1e-10, "tol_sym": 1e-10}}\n',
                    ''),
 'decompose-text': (0,
                    'command = decompose\n'
                    'inputs.h1 = h1.json\n'
                    'inputs.h2 = h2d.json\n'
                    'passed = true\n'
                    'results.all_fibers_unidimensional = false\n'
                    'results.fibers[0].dim = 2\n'
                    'results.fibers[0].eigenvalue = 3\n'
                    'results.fibers[0].weight = 1\n'
                    'results.proportionality.max_violation = [0]\n'
                    'results.proportionality.passed = true\n'
                    'results.segments.2 = [0]\n'
                    'tolerances.tol_eig = 1e-08\n'
                    'tolerances.tol_j = 1.0000000000000001e-09\n'
                    'tolerances.tol_resid = 1e-10\n'
                    'tolerances.tol_sym = 1e-10\n',
                    ''),
 'sample-u-json': (0,
                   ['command',
                    'inputs',
                    'passed',
                    'results',
                    'seed',
                    'tolerances',
                    'results.block_dims',
                    'results.dim',
                    'results.out',
                    'results.residual_commutator',
                    'results.residual_h1',
                    'results.residual_h2'],
                   ''),
 'sample-u-text': (0,
                   ['command',
                    'inputs.h1',
                    'inputs.h2',
                    'passed',
                    'results.block_dims',
                    'results.dim',
                    'results.out',
                    'results.residual_commutator',
                    'results.residual_h1',
                    'results.residual_h2',
                    'seed',
                    'tolerances.tol_eig',
                    'tolerances.tol_j',
                    'tolerances.tol_resid',
                    'tolerances.tol_sym'],
                   ''),
 'verify-u-json': (0,
                   '{"command": "verify-u", "inputs": {"h1": "h1.json", "h2": "h2.json", "u": '
                   '"diag.json"}, "passed": true, "results": {"commutator_ok": true, "h1_ok": '
                   'true, "h2_ok": true, "implication_ok": true, "residual_commutator": 0, '
                   '"residual_h1": 0, "residual_h2": 0}, "tolerances": {"tol_eig": 1e-08, "tol_j": '
                   '1.0000000000000001e-09, "tol_resid": 1e-10, "tol_sym": 1e-10}}\n',
                   ''),
 'verify-u-text': (1,
                   'command = verify-u\n'
                   'inputs.h1 = h1.json\n'
                   'inputs.h2 = h2.json\n'
                   'inputs.u = swap.json\n'
                   'passed = false\n'
                   'results.commutator_ok = false\n'
                   'results.h1_ok = true\n'
                   'results.h2_ok = false\n'
                   'results.implication_ok = true\n'
                   'results.residual_commutator = 0.44721359549995793\n'
                   'results.residual_h1 = 0\n'
                   'results.residual_h2 = 0.63245553203367588\n'
                   'tolerances.tol_eig = 1e-08\n'
                   'tolerances.tol_j = 1.0000000000000001e-09\n'
                   'tolerances.tol_resid = 1e-10\n'
                   'tolerances.tol_sym = 1e-10\n',
                   ''),
 'quiet': (0, '', ''),
 'report-out': (0, '', ''),
 'bad-tol-eig': (2,
                 '',
                 'Usage: main spectrum [OPTIONS]\n'
                 "Try 'main spectrum --help' for help.\n"
                 '\n'
                 'Error: tol_eig must be strictly positive\n'),
 'malformed': (2, '', "error: bad.json: field 'data' must be a list of 4 entries, got 3\n")}

GOLDEN_FILES = {'trip.json': '{"g": {"data": [2.5, 0, 0, 2.5], "dim": 2, "kind": "real_symmetric"}, "j": {"data": '
              '[0, -1, 1, 0], "dim": 2, "kind": "real_general"}, "meta": {"residuals": '
              '{"anti_hermitian": 0, "j_squared": 0, "omega_link": 0}}, "omega": {"data": [0, '
              '-2.5, 2.5, 0], "dim": 2, "kind": "real_antisymmetric"}}\n',
 'trip_w.json': '{"g": {"data": [1.25, 0, 0, 5], "dim": 2, "kind": "real_symmetric"}, "j": '
                '{"data": [0, 2, -0.5, 0], "dim": 2, "kind": "real_general"}, "meta": '
                '{"residuals": {"anti_hermitian": 0, "j_squared": 0, "omega_link": 0}}, "omega": '
                '{"data": [0, 2.5, -2.5, 0], "dim": 2, "kind": "real_antisymmetric"}}\n',
 'herm.json': '{"data": [[2.5, 0]], "dim": 1, "kind": "complex_hermitian"}\n',
 'G.json': '{"data": [[1, 0], [0, 0], [0, 0], [2, 0]], "dim": 2, "kind": "complex_general", '
           '"meta": {"residuals": {"defining": 0, "min_eigenvalue": 1, "selfadjoint_h1": 0, '
           '"selfadjoint_h2": 0}}}\n',
 'report.json': '{"command": "spectrum", "inputs": {"h1": "h1.json", "h2": "h2.json"}, "passed": '
                'true, "results": {"cluster_gap": 2e-08, "dim": 2, "eigenvalues": [1, 2], '
                '"multiplicities": [1, 1], "signature": "U(1)\\u00d7U(1)"}, "tolerances": '
                '{"tol_eig": 1e-08, "tol_j": 1.0000000000000001e-09, "tol_resid": 1e-10, '
                '"tol_sym": 1e-10}}\n'}


def test_golden_bytes(tmp_path, monkeypatch):
    outcomes, artifacts = _golden_outcomes(tmp_path, monkeypatch)
    assert outcomes == GOLDEN
    assert artifacts == GOLDEN_FILES


# Every command, in a fresh interpreter, from a working directory of its own.
_SESSION = """
import json, sys
import numpy as np
from click.testing import CliRunner
from biherm.cli import main
from biherm.matrixio import save_matrix

j = np.array([[0.0, -1.0], [1.0, 0.0]])
save_matrix("g.json", np.diag([1.0, 4.0]), "real_symmetric")
save_matrix("j.json", j, "real_general")
save_matrix("omega.json", 2.5 * j.T, "real_antisymmetric")
b = np.eye(6) + 0.3 * np.arange(36.0).reshape(6, 6) / 36
save_matrix("h1.json", b @ b.T, "complex_hermitian")
save_matrix("h2.json", (b * [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]) @ b.T, "complex_hermitian")
pair = ["--h1", "h1.json", "--h2", "h2.json"]
runner = CliRunner()
codes = [
    runner.invoke(main, args, catch_exceptions=False).exit_code
    for args in [
        ["triple", "--g", "g.json", "--j", "j.json", "--out", "t.json"],
        ["triple", "--g", "g.json", "--omega", "omega.json", "--out", "tw.json"],
        ["hermitian", "--triple", "t.json", "--out", "h.json"],
        ["connect", *pair, "--out", "G.json"],
        ["spectrum", *pair],
        ["generic", *pair],
        ["decompose", *pair],
        ["sample-u", *pair, "--seed", "3", "--out", "U.json"],
        ["verify-u", "--u", "U.json", *pair],
    ]
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(biherm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SESSION], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    session = json.loads(out.stdout)
    assert session == {"codes": [0] * 9, "scipy": []}
