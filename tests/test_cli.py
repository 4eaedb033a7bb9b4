"""CLI behavior: subcommands, exit-code triage, determinism plumbing."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import biherm
from biherm.cli import main
from biherm.errors import FileFormatError
from biherm.matrixio import load_matrix, load_triple, matrix_payload, save_matrix
from biherm.report import canonical_json
from biherm.spectral import SpectralResolution
from biherm.triples import omega_from_g_j
from conftest import (
    NEAR_SINGULAR_H1,
    hermitian_pair_with_multiplicities,
    hermitian_pair_with_spectrum,
    random_admissible_pair,
    random_hpd,
    random_spd,
    reference_load_matrix,
    save_exact_cluster_pair,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
# G's eigenvalues at n = 128: 32 exact pairs 1/8 apart, then 64 simple ones
N128_SPECTRUM = np.concatenate([np.arange(1.0, 97.0), np.arange(1.0, 33.0)]) / 8


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

    def test_j_off_by_its_square_names_j_squared(self, runner, tmp_path):
        # |J^2 + 1| = 2e-10 passes tol_j; the command averages the metric
        # over J itself, so the error names J's J^2 and gives no metric advice
        g, j = tmp_path / "g.json", tmp_path / "j.json"
        save_matrix(g, np.diag([1.0, 2.0]), "real_symmetric")
        save_matrix(j, np.array([[2e-10, -1.0], [1.0, 0.0]]), "real_general")
        result = invoke(runner, ["triple", "--g", str(g), "--j", str(j), "--out", str(tmp_path / "t.json")])
        assert result.exit_code == 1
        assert result.stderr == "analysis failed: J is not g-anti-Hermitian: J^2 = -1 holds only to 2.000e-10\n"
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("g_scale, flag, source, message", [
        (1.0, "--j", np.array([[1e200, -1e200], [1e200, -1e200]]),
         "J^2 = -1 violated: residual inf exceeds 1.000e-09"),
        (1e300, "--j", np.array([[0.0, -1e5], [1e-5, 0.0]]),  # a valid J; J^T g J is 1e310
         "the J-averaged metric leaves the double range: g and J are scaled too far apart"),
        (1e-300, "--omega", 1e300 * J2.T,  # B = 1e600 overflows
         "B = L^-1 omega L^-T leaves the double range: g and omega are scaled too far apart"),
        (1e300, "--omega", 1e-300 * J2.T,  # B = 1e-600 underflows to zero; omega is not degenerate
         "B = L^-1 omega L^-T leaves the double range: g and omega are scaled too far apart"),
    ], ids=["j-squared-overflows", "g-and-j", "omega-over", "omega-under"])
    def test_far_apart_inputs_exit_one_without_a_warning(self, runner, tmp_path, g_scale, flag, source, message):
        g, src, out = (str(tmp_path / name) for name in ("g.json", "src.json", "t.json"))
        save_matrix(g, g_scale * np.eye(2), "real_symmetric")
        save_matrix(src, source, "real_general" if flag == "--j" else "real_antisymmetric")
        args = ["triple", "--g", g, flag, src, "--out", out]
        result = invoke(runner, args)  # in process, where any warning is an error
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"analysis failed: {message}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(biherm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "biherm.cli", *args],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"analysis failed: {message}\n")
        assert not Path(out).exists()

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

    def test_form_within_tol_sym_of_hermitian_is_analysed(self, runner, tmp_path):
        # max|A - Aᴴ| = 0.9 tol_sym·max|A|: the loader and HermitianForm accept
        # it, and the pair is analysed as the form its lower triangle defines
        rng = np.random.default_rng(6)
        a, b = random_hpd(rng, 6) + 6 * np.eye(6), random_hpd(rng, 6)
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = e - e.conj().T
        a = a + e * (0.45 * 1e-10 * np.abs(a).max() / np.abs(e).max())
        h1, h2 = tmp_path / "h1.json", tmp_path / "h2.json"
        save_matrix(h1, a, "complex_hermitian")
        save_matrix(h2, b, "complex_hermitian")
        pair = ["--h1", str(h1), "--h2", str(h2)]
        for args in (["connect", *pair, "--out", str(tmp_path / "G.json")], ["spectrum", *pair], ["decompose", *pair]):
            result = invoke(runner, args)
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["passed"] is True

    def test_numerically_singular_h1_exits_one_naming_h1(self, runner, files, tmp_path):
        h1 = tmp_path / "h1_singular.json"
        save_matrix(h1, NEAR_SINGULAR_H1, "complex_hermitian")
        out = tmp_path / "G.json"
        result = invoke(runner, ["connect", "--h1", str(h1), "--h2", files["h1"], "--out", str(out)])
        assert result.exit_code == 1
        (line,) = result.output.splitlines()
        assert line.startswith("analysis failed: h1 is numerically singular")
        assert not out.exists()

    def test_forms_far_from_scale_one(self, runner, tmp_path):
        # G = 1e200 diag(1, 1.5) and forms at 1e200 are analysed, though the
        # plain norms of h2 G, G and h2 overflow; G = 1e600 is not a double.
        # A dense pair at 1e-160 / 1e160 overflows the congruence, on which
        # the eigensolve does not converge, before G is formed; at 1e300 /
        # 1e-300 G = 1e-600 underflows to zero
        h1, h2, out = (str(tmp_path / name) for name in ("h1.json", "h2.json", "out.json"))
        diag = (np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
        rng = np.random.default_rng(42)
        dense = (random_hpd(rng, 4), random_hpd(rng, 4))
        for (a, b), (s1, s2), code in [(diag, (1e-200, 1.0), 0), (diag, (1e200, 1e200), 0),
                                       (diag, (1e-300, 1e300), 1), (dense, (1e-160, 1e160), 1),
                                       (dense, (1e300, 1e-300), 1)]:
            save_matrix(h1, s1 * a, "complex_hermitian")
            save_matrix(h2, s2 * b, "complex_hermitian")
            for args in (["connect"], ["decompose"], ["sample-u", "--seed", "1"]):
                result = invoke(runner, [*args, "--h1", h1, "--h2", h2, "--out", out])
                assert result.exit_code == code, (s1, s2, args)
                if code:
                    (line,) = result.output.splitlines()
                    assert line.startswith("analysis failed: G or its invariant residuals leave the double range")
                elif args[0] != "decompose":
                    assert json.loads(result.output)["passed"] is True
                else:
                    assert json.loads(Path(out).read_text())["passed"] is True

    def test_forms_scaled_alike_to_a_subnormal_max(self, runner, tmp_path):
        # both forms at max|h| = 1e-310, whose entries are subnormal: G is
        # the unscaled pair's, and no norm divides by the subnormal max
        h1_form, h2_form, _ = hermitian_pair_with_multiplicities(np.random.default_rng(43), (1, 2, 1))
        h1, h2 = h1_form.gram, h2_form.gram
        scale = 1e-310 / max(np.abs(h1).max(), np.abs(h2).max())
        paths = {}
        for tag, s in (("unit", 1.0), ("tiny", scale)):
            paths[tag] = [str(tmp_path / f"{name}_{tag}.json") for name in ("h1", "h2")]
            save_matrix(paths[tag][0], s * h1, "complex_hermitian")
            save_matrix(paths[tag][1], s * h2, "complex_hermitian")
        out = str(tmp_path / "out.json")
        multiplicities = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tag in ("unit", "tiny"):
                pair = ["--h1", paths[tag][0], "--h2", paths[tag][1]]
                for args in (["spectrum"], ["generic"], ["connect", "--out", out], ["sample-u", "--seed", "1", "--out", out]):
                    result = invoke(runner, [*args, *pair])
                    assert result.exit_code == 0, (tag, args, result.output)
                    if args[0] == "spectrum":
                        multiplicities[tag] = json.loads(result.output)["results"]["multiplicities"]
        assert multiplicities["tiny"] == multiplicities["unit"] == [1, 2, 1]

    def test_forms_whose_norm_passes_the_largest_double(self, runner, tmp_path):
        # h1 = h2 = 1e308·I₄: every entry is finite, ‖h‖_F = 2e308 is not a
        # double, so the norms read inf and every command runs to the end
        h, out, u = (str(tmp_path / name) for name in ("h.json", "out.json", "u.json"))
        save_matrix(h, 1e308 * np.eye(4), "complex_hermitian")
        pair = ["--h1", h, "--h2", h]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in (["spectrum"], ["generic"], ["connect", "--out", out], ["decompose", "--out", out],
                         ["sample-u", "--seed", "1", "--out", u], ["verify-u", "--u", u]):
                result = invoke(runner, [*args, *pair])
                assert result.exit_code == 0, (args, result.output)

    @pytest.mark.parametrize("deficient", ["h1", "both", "h2"])
    def test_rank_deficient_forms_never_leak_lapack_text(self, runner, tmp_path, deficient):
        # rank-deficient PSD Gram matrices B Bᴴ: rounding leaves some of
        # them numerically positive-definite, so each is rejected by its
        # form, reported singular, flagged ill-conditioned or, when only h2
        # is deficient and its rounding keeps it positive, analysed; an
        # input this close to singular is never an invariant failure
        rng = np.random.default_rng(5)
        paths = [str(tmp_path / "h1.json"), str(tmp_path / "h2.json")]
        out = str(tmp_path / "G.json")
        exits = set()
        for _ in range(60):
            n = int(rng.integers(2, 17))
            for path, name in zip(paths, ("h1", "h2")):
                if deficient in (name, "both"):
                    r = int(rng.integers(1, n))
                    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
                    mat = b @ b.conj().T
                else:
                    mat = random_hpd(rng, n)
                save_matrix(path, 0.5 * (mat + mat.conj().T), "complex_hermitian")
            result = invoke(runner, ["connect", "--h1", paths[0], "--h2", paths[1], "--out", out])
            exits.add(result.exit_code)
            for text in ("leading minor", "Singular matrix", "not positive definite", "LinAlgError", "Traceback"):
                assert text not in result.output
            if result.exit_code == 1 and not result.output.startswith("{"):
                (line,) = result.output.splitlines()
                assert line.startswith((
                    "analysis failed: gram is not positive-definite (min eigenvalue",
                    "analysis failed: h1 is numerically singular",
                    "analysis failed: h2 is numerically singular",
                ))
            elif deficient != "h2":
                assert result.exit_code == 1
                assert json.loads(result.output)["results"]["ill_conditioned"] is True
        assert exits <= {0, 1} if deficient == "h2" else exits == {1}


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

    @pytest.mark.parametrize("dense", [False, True])
    def test_generic_on_h1_far_below_scale_one(self, runner, tmp_path, dense):
        # h1 at 1e-200 puts G near 1e200: no verdict overflows, and the
        # three agree
        rng = np.random.default_rng(41)
        h1 = random_hpd(rng, 4) if dense else np.diag([1.0, 2.0])
        h2 = random_hpd(rng, 4) if dense else np.diag([1.0, 3.0])
        paths = [str(tmp_path / "h1.json"), str(tmp_path / "h2.json")]
        save_matrix(paths[0], 1e-200 * h1, "complex_hermitian")
        save_matrix(paths[1], h2, "complex_hermitian")
        result = invoke(runner, ["generic", "--h1", paths[0], "--h2", paths[1]])
        assert result.exit_code == 0, result.output
        r = json.loads(result.output)["results"]
        assert r["cyclic"] is True
        assert r["agreement"] is True

    def test_generic_on_degenerate_pair_at_n128(self, runner, tmp_path):
        # a Krylov rank overstates the cyclicity of such a pair; the
        # eigenvalue pair count agrees with the other two verdicts
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

    @pytest.mark.parametrize("h2", ["h2", "h2_degenerate"])
    def test_generic_clusters_once(self, runner, files, monkeypatch, h2):
        # all three verdicts are read from one resolution
        built = []
        init = SpectralResolution.__init__
        monkeypatch.setattr(SpectralResolution, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        result = invoke(runner, ["generic", "--h1", files["h1"], "--h2", files[h2]])
        assert result.exit_code == 0
        assert json.loads(result.output)["results"]["agreement"] is True
        assert len(built) == 1

    def test_generic_on_a_chained_cluster(self, runner, tmp_path):
        # three eigenvalues 0.55-0.95 cluster gaps apart chain into one fiber
        # wider than the gap, so 11 pairs lie within it, not 3^2 + 4 = 13;
        # the three verdicts still agree
        rng = np.random.default_rng(0)
        g1, g2 = rng.uniform(0.55, 0.95, 2) * 3e-8
        lam = np.sort([1.0, 1.5, 2.0, 3.0, 1.2, 1.2 + g1, 1.2 + g1 + g2])
        paths = [str(tmp_path / "h1.json"), str(tmp_path / "h2.json")]
        for path, form in zip(paths, hermitian_pair_with_spectrum(rng, lam, 10.0)):
            save_matrix(path, form.gram, "complex_hermitian")
        result = invoke(runner, ["generic", "--h1", paths[0], "--h2", paths[1]])
        assert result.exit_code == 0
        r = json.loads(result.output)["results"]
        assert not (r["generic_by_spectrum"] or r["generic_by_commutant"] or r["cyclic"])
        assert r["agreement"] is True
        assert r["commutant_dimension"] == 11 and r["bicommutant_dimension"] == 5
        assert r["signature"] == "U(1)×U(3)×U(1)×U(1)×U(1)"


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

    def test_sample_at_n128_is_reproducible_and_verifies(self, runner, tmp_path):
        # 32 fibers of dimension 2 among 64 simple ones: two draws with one
        # seed write the same bytes and reports, and the draw verifies
        pair = save_exact_cluster_pair(tmp_path, "n128", 0, N128_SPECTRUM)
        outputs = []
        for name in ("U_a.json", "U_b.json"):
            result = invoke(runner, ["sample-u", *pair, "--seed", "5", "--out", str(tmp_path / name)])
            assert result.exit_code == 0
            outputs.append(result.output.replace(name, "U.json"))
        assert outputs[0] == outputs[1]
        assert (tmp_path / "U_a.json").read_bytes() == (tmp_path / "U_b.json").read_bytes()
        assert json.loads(outputs[0])["results"]["block_dims"] == [2] * 32 + [1] * 64
        result = invoke(runner, ["verify-u", "--u", str(tmp_path / "U_a.json"), *pair])
        assert result.exit_code == 0

    @pytest.mark.parametrize("scale_u", [1e5, 1e10])
    def test_verify_residual_out_of_range_exits_one(self, runner, tmp_path, scale_u):
        # the residual is inf at U = 1e5·I and nan at U = 1e10·I: no report
        h, u = str(tmp_path / "h.json"), str(tmp_path / "u.json")
        save_matrix(h, 1e300 * np.eye(2), "complex_hermitian")
        save_matrix(u, scale_u * np.eye(2), "complex_general")
        result = invoke(runner, ["verify-u", "--u", u, "--h1", h, "--h2", h])
        assert result.exit_code == 1
        (line,) = result.output.splitlines()
        assert line.startswith("analysis failed: bi-unitarity residuals leave the double range")

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
        # every later stage clusters as spectrum does, under either tolerance
        for flags, spectrum in (["--tol-eig", "1e-4"], loose), ([], tight):
            mults = json.loads(spectrum.output)["results"]["multiplicities"]
            pair = ["--h1", files["h1"], "--h2", str(h2), *flags]
            generic = json.loads(invoke(runner, ["generic", *pair]).output)["results"]
            assert generic["signature"] == json.loads(spectrum.output)["results"]["signature"]
            assert generic["commutant_dimension"] == sum(m * m for m in mults)
            assert generic["cyclic"] is (mults == [1, 1])
            decompose = json.loads(invoke(runner, ["decompose", *pair]).output)["results"]
            assert [f["dim"] for f in decompose["fibers"]] == mults
            sample = invoke(runner, ["sample-u", *pair, "--out", str(tmp_path / "U.json")])
            assert json.loads(sample.output)["results"]["block_dims"] == mults

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

    @pytest.mark.parametrize(
        "content,message",
        [(b'{"kind": "complex_hermitian", "dim": 1, "data": [[1, 0]], "meta": "\xff"}',
          "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 67: invalid start byte"),
         (b'{"kind": "complex_hermitian", "dim": 1, "data": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
          "JSON nested too deeply")],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_malformed_bytes_exit_two(self, runner, files, tmp_path, content, message):
        h2 = tmp_path / "bad.json"
        h2.write_bytes(content)
        result = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", str(h2)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {h2}: {message}\n"

    def test_asymmetry_past_the_largest_double_exits_two(self, runner, files, tmp_path):
        # h2 - h2ᴴ overflows to inf: a malformed file, with no numpy warning on the way
        h2 = tmp_path / "far.json"
        h2.write_text('{"kind": "complex_hermitian", "dim": 2, "data": [[1, 0], [1.5e308, 0], [-1.5e308, 0], [1, 0]]}')
        result = invoke(runner, ["spectrum", "--h1", files["h1"], "--h2", str(h2)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {h2}: matrix is not Hermitian within tolerance\n"

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

    @pytest.mark.parametrize("command", ["generic", "sample-u"])
    def test_negative_seed_is_usage_error(self, runner, files, tmp_path, command):
        args = [command, "--h1", files["h1"], "--h2", files["h2"], "--seed", "-1"]
        if command == "sample-u":
            args += ["--out", str(tmp_path / "U.json")]
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for '--seed'" in result.stderr

    def test_version_is_package_version(self, runner):
        result = invoke(runner, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"biherm, version {biherm.__version__}\n"


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The inputs of the file-flow cases, written once into one directory.

    ``spectra`` maps each pair ``{name}_h1.json``, ``{name}_h2.json`` to the
    eigenvalues of its G, repeats included: exact-cluster pairs at n = 128
    (cluster pairs, a mix of pairs and simple eigenvalues, all simple, all
    equal, and the all-equal pair whose h1 holds two -0 entries), at n = 10
    (fibers of dimension 1 to 4) and at n = 40 (all equal), and 2x2 pairs
    with h1 at 1e-200 or cond(h1) near 1e17, 1e9 or 1e7.  Beside them are
    the console chain's 4x4 g, J, g2 and ω = g2 J; the admissible couple
    g = diag(1, 1e-9), ω = g J and its J; two matrices of random bit
    patterns; and, in ``malformed``, two large files that each hold one
    entry that is not a number.
    """
    d = tmp_path_factory.mktemp("flow")
    spectra = {
        "n128": N128_SPECTRUM,
        "mix": np.sort(np.concatenate([np.arange(1.0, 97.0), np.arange(1.0, 97.0, 3.0)])) / 8,
        "simple": np.arange(1.0, 129.0) / 8,
        "dims": np.repeat([1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4]),
        "scalar40": np.full(40, 2.0),
        "ok": np.full(128, 2.0),
        "neg0": np.ones(128),
    }
    for name, seed in (("n128", 0), ("mix", 1), ("simple", 2), ("dims", 4), ("scalar40", 3), ("ok", 10), ("neg0", 6)):
        save_exact_cluster_pair(d, name, seed, spectra[name])
    kind, h = load_matrix(d / "neg0_h1.json")
    h[0, 1] = h[1, 0] = -0.0
    save_matrix(d / "neg0_h1.json", h, kind)
    k7 = (np.array([[15427772.643257782, -13806673.916138375 - 26746912.25518298j],
                    [-13806673.916138375 + 26746912.25518298j, 58726664.88661395]]),
          np.array([[13605848.36436537, -12174142.432212282 - 23592141.186097145j],
                    [-12174142.432212282 + 23592141.186097145j, 51801176.13979595]]))
    for name, h1, h2 in (("tiny", 1e-200 * np.diag([1.0, 2.0]), np.diag([1.0, 3.0])),
                         ("k17", np.diag([1.0, 1e-17]), np.diag([1.0, 2.0])),
                         ("k9", np.diag([1.0, 1e-9]), np.diag([1.0, 2.0])),
                         ("k7", *k7)):
        save_matrix(d / f"{name}_h1.json", h1, "complex_hermitian")
        save_matrix(d / f"{name}_h2.json", h2, "complex_hermitian")
        spectra[name] = np.linalg.eigvals(np.linalg.solve(h1, h2)).real
    j4 = np.kron(np.eye(2), J2)
    save_matrix(d / "g.json", np.diag([1.0, 4.0, 2.0, 3.0]), "real_symmetric")
    save_matrix(d / "j.json", j4, "real_general")
    save_matrix(d / "g2.json", np.diag([1.0, 1.0, 3.0, 3.0]), "real_symmetric")
    save_matrix(d / "omega.json", np.diag([1.0, 1.0, 3.0, 3.0]) @ j4, "real_antisymmetric")
    g, j = np.diag([1.0, 1e-9]), np.array([[0.0, -np.sqrt(1e-9)], [1.0 / np.sqrt(1e-9), 0.0]])
    save_matrix(d / "e9_g.json", g, "real_symmetric")
    save_matrix(d / "e9_j.json", j, "real_general")
    save_matrix(d / "e9_omega.json", g @ j, "real_antisymmetric")
    rng = np.random.default_rng(9)
    for name, kind, shape in (("bits_real", "real_general", (300, 300)), ("bits_cplx", "complex_general", (150, 300))):
        bits = rng.integers(0, 2**64, shape, dtype=np.uint64).view(float)
        mat = np.where(np.isfinite(bits), bits, 0.0)
        save_matrix(d / f"{name}.json", mat.view(complex) if kind == "complex_general" else mat, kind)
    save_matrix(d / "g_ok.json", np.eye(256) + 0.1 * np.ones((256, 256)), "real_symmetric")
    save_matrix(d / "j_ok.json", np.kron(np.eye(128), J2), "real_general")
    obj = json.loads((d / "ok_h1.json").read_text())
    obj["data"][1000][0] = True
    (d / "ok_true.json").write_text(json.dumps(obj) + " " * 700_000)
    obj = json.loads((d / "g_ok.json").read_text())
    obj["data"][3000] = "1.5"
    (d / "g_str.json").write_text(json.dumps(obj))
    return SimpleNamespace(dir=d, spectra=spectra, malformed=("ok_true.json", "g_str.json"))


def _reload(path) -> None:
    """Load a written artifact; a matrix file without a meta section must be its list rendering."""
    text = Path(path).read_text()
    obj = json.loads(text)
    if "g" in obj:
        load_triple(path)
        return
    kind, mat = load_matrix(path)
    if "meta" not in obj:
        assert text == canonical_json(matrix_payload(mat, kind)) + "\n", path


class TestFileFlow:
    """Commands chained through files, as a user runs them, with warnings as errors."""

    def test_console_chain(self, runner, flow, tmp_path, monkeypatch):
        # the chain the workflow runs through the installed console script:
        # every command exits 0, triple and hermitian write the same bytes
        # twice, and every artifact reloads
        monkeypatch.chdir(flow.dir)
        out = {name: str(tmp_path / f"{name}.json") for name in ("t", "t2", "tw", "h1", "h1b", "h2", "G", "U")}
        pair = ["--h1", out["h1"], "--h2", out["h2"]]
        for args in (["triple", "--g", "g.json", "--j", "j.json", "--out", out["t"]],
                     ["triple", "--g", "g.json", "--j", "j.json", "--out", out["t2"]],
                     ["triple", "--g", "g2.json", "--omega", "omega.json", "--out", out["tw"]],
                     ["hermitian", "--triple", out["t"], "--out", out["h1"]],
                     ["hermitian", "--triple", out["t2"], "--out", out["h1b"]],
                     ["hermitian", "--triple", out["tw"], "--out", out["h2"]],
                     ["connect", *pair, "--out", out["G"]], ["spectrum", *pair], ["generic", *pair],
                     ["decompose", *pair], ["sample-u", *pair, "--seed", "1", "--out", out["U"]],
                     ["verify-u", "--u", out["U"], *pair]):
            result = invoke(runner, args)
            assert result.exit_code == 0, (args, result.output)
        for first, again in (("t", "t2"), ("h1", "h1b")):
            assert Path(out[first]).read_bytes() == Path(out[again]).read_bytes()
        for name in ("t", "tw", "h1", "h2", "G", "U"):
            _reload(out[name])

    @pytest.mark.parametrize("name", ["n128", "mix", "simple", "dims", "scalar40", "tiny", "k17"])
    def test_commands_report_one_resolution(self, runner, flow, tmp_path, monkeypatch, name):
        # generic position read three ways from one resolution: the commutant
        # dimension is the sum of n_j^2, the bicommutant dimension the fiber
        # count, and cyclic holds exactly when every fiber is simple; spectrum,
        # generic under any seed and decompose agree with G's eigenvalues,
        # and a repeated report is byte-equal
        monkeypatch.chdir(flow.dir)
        pair = ["--h1", f"{name}_h1.json", "--h2", f"{name}_h2.json"]
        mults = np.unique(flow.spectra[name], return_counts=True)[1].tolist()
        texts = []
        for out in ("a.txt", "b.txt"):
            result = invoke(runner, ["spectrum", *pair, "--format", "text", "--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
            texts.append((tmp_path / out).read_text())
        assert texts[0] == texts[1]
        assert f"\nresults.multiplicities = {mults}\n" in texts[0]
        reports = []
        for seed in ("0", "1", "5"):
            result = invoke(runner, ["generic", *pair, "--seed", seed])
            assert result.exit_code == 0, result.output
            reports.append(json.loads(result.stdout)["results"])
        r = reports[0]
        assert reports == [r] * 3
        assert r["agreement"] is True
        assert r["commutant_dimension"] == sum(m * m for m in mults)
        assert r["bicommutant_dimension"] == len(mults)
        assert r["cyclic"] is (max(mults) == 1)
        if name == "k17":
            return  # decompose's proportionality check divides by |h2|, not G's scale, and fails here
        for out in ("a.json", "b.json"):
            assert invoke(runner, ["decompose", *pair, "--out", str(tmp_path / out)]).exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        d = json.loads((tmp_path / "a.json").read_text())["results"]
        assert [f["dim"] for f in d["fibers"]] == mults
        assert d["all_fibers_unidimensional"] is r["cyclic"]

    @pytest.mark.parametrize(
        "args, expected",
        [(["sample-u", "--h1", "mix_h1.json", "--h2", "mix_h2.json", "--seed", "7"], {}),
         (["sample-u", "--h1", "dims_h1.json", "--h2", "dims_h2.json", "--seed", "7"], {"block_dims": [1, 2, 3, 4]}),
         (["sample-u", "--h1", "simple_h1.json", "--h2", "simple_h2.json", "--seed", "3"], {}),
         (["sample-u", "--h1", "neg0_h1.json", "--h2", "n128_h2.json", "--seed", "4"], {}),
         (["connect", "--h1", "k7_h1.json", "--h2", "k7_h2.json"], {"ill_conditioned": False}),
         (["connect", "--h1", "k9_h1.json", "--h2", "k9_h2.json"], {"ill_conditioned": True}),
         (["triple", "--g", "e9_g.json", "--omega", "e9_omega.json"], {})],
        ids=["sample-u-mix", "sample-u-dims", "sample-u-simple", "sample-u-neg0", "connect-k7", "connect-k9",
             "triple-e9"],
    )
    def test_artifacts_repeat_and_reload(self, runner, flow, tmp_path, monkeypatch, args, expected):
        # two runs write the same bytes and reports, and the artifact
        # reloads; a draw verifies, and the (g, ω) route recovers J exactly
        monkeypatch.chdir(flow.dir)
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        reports = []
        for out in outs:
            result = invoke(runner, [*args, "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports.append(result.stdout.replace(str(out), "OUT"))
        assert reports[0] == reports[1]
        assert outs[0].read_bytes() == outs[1].read_bytes()
        results = json.loads(reports[0])["results"]
        assert {k: results[k] for k in expected} == expected
        _reload(outs[0])
        if args[0] == "sample-u":
            assert invoke(runner, ["verify-u", "--u", str(outs[0]), *args[1:5]]).exit_code == 0
        elif args[0] == "triple":
            assert np.array_equal(load_triple(outs[0]).j.mat, load_matrix("e9_j.json")[1])

    def test_inputs_reload_to_their_own_bytes(self, flow, tmp_path):
        # every file save_matrix wrote, -0 entries included, saves back to
        # the same bytes; random bit patterns are also their list rendering
        paths = sorted(p for p in flow.dir.glob("*.json") if p.name not in flow.malformed)
        assert len(paths) >= 30
        for path in paths:
            kind, mat = load_matrix(path)
            save_matrix(tmp_path / "again.json", mat, kind)
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), path.name
            if path.name.startswith("bits"):
                _reload(path)
        assert "[-0, " in (flow.dir / "neg0_h1.json").read_text()

    @pytest.mark.parametrize(
        "args",
        [["spectrum", "--h1", "ok_true.json", "--h2", "ok_h2.json"], ["triple", "--g", "g_str.json", "--j", "j_ok.json"],
         ["spectrum", "--h1", "ok_h1.json", "--h2", "ok_h2.json", "--quiet"]],
        ids=["boolean-entry", "string-entry", "valid"],
    )
    def test_large_files_read_as_the_reference_loader_reads_them(self, runner, flow, tmp_path, monkeypatch, args):
        # files large enough for orjson: an entry that is not a number exits
        # 2 with the reference loader's message, and the collector is on
        # after every command
        monkeypatch.chdir(flow.dir)
        bad = next((a for a in args if a in flow.malformed), None)
        result = invoke(runner, [*args, "--out", str(tmp_path / "t.json")] if args[0] == "triple" else args)
        assert gc.isenabled()
        if bad is None:
            assert result.exit_code == 0, result.output
            return
        with pytest.raises(FileFormatError) as reference:
            reference_load_matrix(bad)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert re.match(rf"error: {bad}: data\[\d+\]: expected a ", result.stderr)
        assert result.stderr == f"error: {reference.value}\n"

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


# Every command, in a fresh interpreter with warnings as errors, from a
# working directory of its own.
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
    out = subprocess.run([sys.executable, "-W", "error", "-c", _SESSION], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    session = json.loads(out.stdout)
    assert session == {"codes": [0] * 9, "scipy": []}


# One sweep of the pair commands in a fresh interpreter, whose BLAS thread
# count is set in its environment before numpy loads.  It prints each
# command's exit code and report, every float of the report masked.
_THREAD_SWEEP = """
import json, sys
from click.testing import CliRunner
import biherm.cli
from biherm.cli import main

def masked(obj):
    if isinstance(obj, dict):
        return {k: masked(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [masked(v) for v in obj]
    return "<float>" if isinstance(obj, float) else obj

reports = []
render = biherm.cli.render_report
biherm.cli.render_report = lambda report, fmt: reports.append(masked(report)) or render(report, fmt)
runner = CliRunner()
codes = []
for name in ("n128", "n12"):
    pair = ["--h1", f"{sys.argv[1]}/{name}_h1.json", "--h2", f"{sys.argv[1]}/{name}_h2.json"]
    for args in (["spectrum", *pair], ["generic", *pair], ["decompose", *pair], ["connect", *pair, "--out", "G.json"],
                 ["sample-u", *pair, "--seed", "3", "--out", "U.json"], ["verify-u", "--u", "U.json", *pair]):
        codes.append(runner.invoke(main, args, catch_exceptions=False).exit_code)
print(json.dumps({"codes": codes, "reports": reports}))
"""


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # an n = 128 pair whose clusters are exact repeats 1/8 apart and an
    # n = 12 pair: with 1 and with 2 BLAS threads, every exit code, verdict,
    # multiplicity, signature and key agrees; floats may move in the last bits
    save_exact_cluster_pair(tmp_path, "n128", 0, N128_SPECTRUM)
    h1, h2, _ = hermitian_pair_with_multiplicities(np.random.default_rng(64), (1, 2, 3, 4, 2))
    save_matrix(tmp_path / "n12_h1.json", h1.gram, "complex_hermitian")
    save_matrix(tmp_path / "n12_h2.json", h2.gram, "complex_hermitian")
    sweeps = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(biherm.__file__).parents[1]))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        out = subprocess.run([sys.executable, "-c", _THREAD_SWEEP, str(tmp_path)], cwd=cwd, env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        sweeps.append(json.loads(out.stdout))
    assert sweeps[0]["codes"] == [0] * 12
    assert len(sweeps[0]["reports"]) == 12
    assert sweeps[0] == sweeps[1]
