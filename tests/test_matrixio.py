"""Tests for the matrix/triple file formats."""

import gc
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biherm import (
    DEFAULT_TOLERANCES,
    AdmissibleTriple,
    ComplexStructureJ,
    FileFormatError,
    HermitianForm,
    NotAdmissibleError,
    RealForm,
    Tolerances,
    symmetrize_metric,
    triple_from_g_j,
)
from biherm.forms import _asymmetry, _within_tol_sym
from biherm.matrixio import (
    MATRIX_KINDS,
    _orjson_reads,
    load_matrix,
    load_triple,
    matrix_payload,
    save_matrix,
    save_triple,
)
from biherm.report import canonical_json
from conftest import (
    random_admissible_pair,
    random_hpd,
    random_spd,
    reference_canonical_json,
    reference_load_matrix,
    reference_matrix_file,
    reference_matrix_section,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
HUGE = "1" + "0" * 400  # a JSON integer beyond the double range


class TestMatrixRoundTrip:
    @pytest.mark.parametrize(
        "kind,mat",
        [
            ("real_symmetric", np.array([[1.0, 0.25], [0.25, 2.0]])),
            ("real_antisymmetric", np.array([[0.0, 1.5], [-1.5, 0.0]])),
            ("real_general", np.array([[1.0, 2.0], [3.0, 4.0]])),
            ("complex_hermitian", np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])),
            ("complex_general", np.array([[1j, 2.0], [0.5 - 1j, 4.0]])),
        ],
    )
    def test_save_load(self, tmp_path, kind, mat):
        path = tmp_path / "m.json"
        save_matrix(path, mat, kind)
        got_kind, got = load_matrix(path)
        assert got_kind == kind
        assert np.array_equal(got, mat.astype(got.dtype))

    def test_meta_section_ignored_on_load(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2), "real_symmetric", meta={"note": 1.5})
        _, got = load_matrix(path)
        assert np.array_equal(got, np.eye(2))

    def test_expected_kind_enforced(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2), "real_symmetric")
        with pytest.raises(FileFormatError, match="expected kind"):
            load_matrix(path, ("complex_hermitian",))

    @pytest.mark.parametrize(
        "kind, mat, message",
        [("real_general", np.ones((2, 3)), "square"), ("real_general", np.ones(3), "square"),
         ("real_general", np.ones((0, 0)), "nonempty"),
         ("real_general", np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite"),
         ("real_symmetric", np.array([[1.0, 1.0 + 1e-6], [1.0, 1.0]]), "^matrix is not symmetric within tolerance$"),
         ("real_symmetric", np.array([[1, 2], [3, 4]]), "^matrix is not symmetric within tolerance$"),
         ("real_antisymmetric", np.array([[0.0, 1.0 + 1e-6], [-1.0, 0.0]]),
          "^matrix is not antisymmetric within tolerance$"),
         ("complex_hermitian", np.array([[1.0, 1j * (1.0 + 1e-6)], [-1j, 1.0]]),
          "^matrix is not Hermitian within tolerance$"),
         ("real_symmetric", np.array([[1.0, 1.5e308], [-1.5e308, 1.0]]), "^matrix is not symmetric within tolerance$"),
         ("real_antisymmetric", np.array([[0.0, 1.5e308], [1.5e308, 0.0]]),
          "^matrix is not antisymmetric within tolerance$"),
         ("complex_hermitian", np.array([[1.0, 1.5e308], [-1.5e308, 1.0]]),
          "^matrix is not Hermitian within tolerance$"),
         ("real_symmetric", np.array([[1, 2j], [-2j, 3]]),
          "^matrix of kind real_symmetric has a nonzero imaginary part$"),
         ("real_antisymmetric", np.array([[1e-300j, 2.0], [-2.0, 0.0]]), "real_antisymmetric has a nonzero imaginary"),
         ("real_general", np.array([[1.0, 2.0], [3.0, 4.0 - 1e-300j]]), "real_general has a nonzero imaginary"),
         ("real_hermitian", np.eye(2), "^unknown matrix kind 'real_hermitian'$")],
        ids=["non-square", "1-d", "empty", "nan", "asymmetric", "asymmetric-int", "not-antisymmetric", "not-hermitian",
             "asymmetric-overflow", "not-antisymmetric-overflow", "not-hermitian-overflow", "imag-symmetric", "imag-antisymmetric", "imag-general", "unknown-kind"],
    )
    def test_writers_reject_what_load_rejects(self, tmp_path, kind, mat, message):
        # unchecked, a 2x3 array is written as dim 2 with 6 entries, a 1-D
        # one as dim 3 with 3 entries, an empty one as dim 0, a NaN as a
        # bare nan, not JSON, a matrix off its kind's symmetry as a file the
        # loader refuses, and a real kind's imaginary part is dropped; the
        # check comes before the file is opened, and an A ∓ Aᴴ past the
        # largest double is refused with no numpy warning
        sections = {"g": np.eye(2), "j": np.eye(2), "omega": np.zeros((2, 2))}
        key = {"real_symmetric": "g", "real_general": "j", "real_antisymmetric": "omega"}.get(kind)
        writes = [(tmp_path / "m.json", lambda p: save_matrix(p, mat, kind)),
                  (tmp_path / "p.json", lambda p: p.write_text(json.dumps(matrix_payload(mat, kind))))]
        if key is not None:
            sections[key] = mat
            trip = SimpleNamespace(g=SimpleNamespace(gram=sections["g"]), j=SimpleNamespace(mat=sections["j"]),
                                   omega=SimpleNamespace(gram=sections["omega"]))
            writes.append((tmp_path / "t.json", lambda p: save_triple(p, trip)))
        for path, write in writes:
            with pytest.raises(ValueError, match=message):
                write(path)
            assert not path.exists()


def _off_symmetry(n: int, is_complex: bool, sign: int, ratio: float, seed: int) -> np.ndarray:
    """A = S + δK with S exactly symmetric or Hermitian and positive-definite
    (sign +1) or antisymmetric (sign -1), K exactly of the opposite symmetry,
    and δ set so that max|A ∓ Aᴴ| = ratio·tol_sym·max|A|.  For real, sign +1
    and even n, S and K commute with J0 = ⊕ [[0, -1], [1, 0]], so (A, J0, A·J0)
    meets every triple check but the metric's symmetry."""
    rng = np.random.default_rng(seed)

    def square():
        z = rng.standard_normal((n, n))
        return z + 1j * rng.standard_normal((n, n)) if is_complex else z

    z = square()
    if sign > 0:
        s, k = (random_hpd(rng, n) if is_complex else random_spd(rng, n)), z - z.conj().T
        if not is_complex and n % 2 == 0:
            j0 = np.kron(np.eye(n // 2), J2)
            p = z + z.T
            s, k = 0.5 * (s + j0.T @ s @ j0), j0 @ (0.5 * (p + j0.T @ p @ j0))
    else:
        m = square()
        s, k = z - z.conj().T, m + m.conj().T
    delta = ratio * DEFAULT_TOLERANCES.tol_sym * np.max(np.abs(s)) / (2.0 * np.max(np.abs(k)))
    return s + delta * k


class TestOneSymmetryVerdict:
    # every check of "within tol_sym of (anti)symmetric or Hermitian" sees the
    # same matrix, 2x inside and 2x outside the tolerance; no kind, form or
    # triple is anti-Hermitian, so for complex sign -1 only the predicate reads it
    @pytest.mark.parametrize("n", [2, 8, 33])
    @pytest.mark.parametrize("is_complex, sign", [(False, 1), (False, -1), (True, 1), (True, -1)])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_forms_files_and_triples_agree(self, tmp_path, n, is_complex, sign, ratio):
        a = _off_symmetry(n, is_complex, sign, ratio, seed=n)
        resid, scale = _asymmetry(a, sign)
        assert resid / scale / DEFAULT_TOLERANCES.tol_sym == pytest.approx(ratio, rel=1e-4)
        verdicts = {"predicate": _within_tol_sym(a, sign, DEFAULT_TOLERANCES)}

        def check(name, call, errors):
            try:
                call()
            except errors:
                verdicts[name] = False
            else:
                verdicts[name] = True

        kind = {(False, 1): "real_symmetric", (False, -1): "real_antisymmetric",
                (True, 1): "complex_hermitian"}.get((is_complex, sign))
        if kind is not None:
            tag = "symmetric" if sign > 0 else "antisymmetric"
            check("form", lambda: HermitianForm(a) if is_complex else RealForm(a, tag), ValueError)
            data = a.view(float).reshape(-1, 2).tolist() if is_complex else a.ravel().tolist()
            by_hand = tmp_path / "by_hand.json"
            by_hand.write_text(json.dumps({"kind": kind, "dim": n, "data": data}))
            check("load_matrix", lambda: load_matrix(by_hand), FileFormatError)
            written = tmp_path / "written.json"
            check("save_matrix", lambda: save_matrix(written, a, kind), ValueError)
            assert written.exists() == verdicts["save_matrix"]
        if kind == "real_symmetric" and n % 2 == 0:
            loose = Tolerances(tol_sym=1e-6)
            g = RealForm(a, "symmetric", loose)
            j = ComplexStructureJ(np.kron(np.eye(n // 2), J2))
            omega = RealForm(a @ j.mat, "antisymmetric", loose)
            check("symmetrize_metric", lambda: symmetrize_metric(g, j), NotAdmissibleError)
            check("AdmissibleTriple", lambda: AdmissibleTriple(g, j, omega), NotAdmissibleError)
        assert verdicts == dict.fromkeys(verdicts, ratio < 1.0)


class TestDiagnostics:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_symmetric",\n  "dim": }')
        with pytest.raises(FileFormatError, match="line 2"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            load_matrix(tmp_path / "nope.json")

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "weird", "dim": 1, "data": [1]}')
        with pytest.raises(FileFormatError, match="'kind'"):
            load_matrix(path)

    def test_bad_dim(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_general", "dim": 0, "data": []}')
        with pytest.raises(FileFormatError, match="'dim'"):
            load_matrix(path)

    def test_wrong_data_length(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_general", "dim": 2, "data": [1, 2, 3]}')
        with pytest.raises(FileFormatError, match="4 entries"):
            load_matrix(path)

    def test_bad_entry_indexed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_general", "dim": 2, "data": [1, 2, "x", 4]}')
        with pytest.raises(FileFormatError, match=r"data\[2\]"):
            load_matrix(path)

    def test_nonfinite_entry_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_general", "dim": 2, "data": [1, 2, NaN, 4]}')
        with pytest.raises(FileFormatError, match=r"data\[2\]"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "kind,dim,data,message",
        [
            ("real_general", 2, "[1, true, 3, 4]", "data[1]: expected a real number, got True"),
            ("complex_general", 1, "[[true, 0.0]]", "data[0]: expected a [re, im] pair, got [True, 0.0]"),
            ("real_general", 2, '[1, NaN, "x", 4]', "data[1]: non-finite entry nan"),
            ("real_general", 2, '[1, "x", NaN, 4]', "data[1]: expected a real number, got 'x'"),
            ("real_general", 2, "[1, 2, 3, Infinity]", "data[3]: non-finite entry inf"),
            ("complex_general", 1, "[[0, -Infinity]]", "data[0]: non-finite entry [0, -inf]"),
            ("complex_general", 1, "[[1.0, 2.0, 3.0]]",
             "data[0]: expected a [re, im] pair, got [1.0, 2.0, 3.0]"),
        ],
    )
    def test_bad_entry_message(self, tmp_path, kind, dim, data, message):
        path = tmp_path / "m.json"
        path.write_text(f'{{"kind": "{kind}", "dim": {dim}, "data": {data}}}')
        with pytest.raises(FileFormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "kind,data",
        [
            ("real_symmetric", f"[{HUGE}]"),
            ("complex_general", f"[[{HUGE}, 0]]"),
            ("complex_general", f"[[0, -{HUGE}]]"),
        ],
        ids=["real", "complex-re", "complex-im"],
    )
    def test_integer_beyond_double_range_rejected(self, tmp_path, kind, data):
        path = tmp_path / "m.json"
        path.write_text(f'{{"kind": "{kind}", "dim": 1, "data": {data}}}')
        with pytest.raises(FileFormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: data[0]: integer too large for a double"

    def test_integer_beyond_parser_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_symmetric", "dim": 1, "data": [1' + "0" * 5000 + "]}")
        with pytest.raises(FileFormatError, match="integer too large for a double"):
            load_matrix(path)

    def test_large_integer_within_double_range_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_general", "dim": 1, "data": [100000000000000000000]}')
        assert load_matrix(path)[1][0, 0] == 1e20

    def test_complex_needs_pairs(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "complex_general", "dim": 1, "data": [3.0]}')
        with pytest.raises(FileFormatError, match=r"\[re, im\] pair"):
            load_matrix(path)

    def test_symmetry_validated_at_boundary(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "real_symmetric", "dim": 2, "data": [1, 2, 3, 4]}')
        with pytest.raises(FileFormatError, match="not symmetric"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "kind,data,message",
        [
            ("real_symmetric", "[1, 2, 3, 4]", "matrix is not symmetric within tolerance"),
            ("real_antisymmetric", "[0, 1, 1, 0]", "matrix is not antisymmetric within tolerance"),
            ("complex_hermitian", "[[1, 0], [2, 1], [2, 1], [4, 0]]",
             "matrix is not Hermitian within tolerance"),
        ],
    )
    def test_symmetry_message_at_boundary(self, tmp_path, kind, data, message):
        path = tmp_path / "m.json"
        path.write_text(f'{{"kind": "{kind}", "dim": 2, "data": {data}}}')
        with pytest.raises(FileFormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: {message}"


class TestTripleBundle:
    def test_round_trip(self, tmp_path):
        trip = triple_from_g_j(RealForm(np.diag([1.0, 4.0]), "symmetric"), ComplexStructureJ(J2))
        path = tmp_path / "t.json"
        save_triple(path, trip, meta={"residuals": {"x": 0.0}})
        back = load_triple(path)
        assert np.allclose(back.g.gram, trip.g.gram)
        assert np.allclose(back.j.mat, trip.j.mat)
        assert np.allclose(back.omega.gram, trip.omega.gram)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"g": matrix_payload(np.eye(2), "real_symmetric")}))
        with pytest.raises(FileFormatError, match="section 'j'"):
            load_triple(path)

    def test_deterministic_bytes(self, tmp_path):
        trip = triple_from_g_j(RealForm(np.diag([1.0, 4.0]), "symmetric"), ComplexStructureJ(J2))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_triple(p1, trip)
        save_triple(p2, trip)
        assert p1.read_bytes() == p2.read_bytes()


SPECIAL_ENTRIES = (-0.0, 5e-324, 1.7976931348623157e308, 1 / 3)


def _exact_matrix(kind: str, n: int, seed: int, injected) -> np.ndarray:
    """A matrix of the given kind, symmetric exactly, with entries of many
    magnitudes (subnormals included) and the ``(index, value)`` pairs of
    ``injected`` written into its real part."""
    rng = np.random.default_rng(seed)

    def part():
        return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-320, 300, (n, n))

    mat = part() if kind.startswith("real") else part() + 0j
    if kind.startswith("complex"):
        mat.imag = part()
    for index, value in injected:
        mat.real.flat[index % (n * n)] = value
    low = np.tril_indices(n, -1)
    if kind == "real_symmetric":
        mat[low] = mat.T[low]
    elif kind == "real_antisymmetric":
        mat[low] = -mat.T[low]
        np.fill_diagonal(mat, np.copysign(0.0, np.diagonal(mat)))
    elif kind == "complex_hermitian":
        mat[low] = mat.T[low].conj()
        mat.imag[np.diag_indices(n)] = 0.0
    return mat


class TestRoundTripOracle:
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        injected=st.lists(
            st.tuples(
                st.integers(0, 64 * 64 - 1),
                st.sampled_from(SPECIAL_ENTRIES) | st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=8,
        ),
    )
    @example(n=2, seed=0, injected=list(enumerate(SPECIAL_ENTRIES)))
    @example(n=64, seed=1, injected=[(i * 1031, v) for i, v in enumerate(SPECIAL_ENTRIES)])
    def test_bytes_and_values(self, tmp_path_factory, kind, n, seed, injected):
        mat = _exact_matrix(kind, n, seed, injected)
        path = tmp_path_factory.mktemp("oracle") / "m.json"
        save_matrix(path, mat, kind)
        assert path.read_text(encoding="utf-8") == reference_matrix_file(mat, kind)
        got_kind, got = load_matrix(path)
        assert got_kind == kind
        assert got.dtype == mat.dtype and got.tobytes() == mat.tobytes()


TRIPLE_KINDS = {"g": "real_symmetric", "j": "real_general", "omega": "real_antisymmetric"}


def _stand_in_triple(m: int, seed: int, injected=()) -> SimpleNamespace:
    """What save_triple reads of a triple (g.gram, j.mat, omega.gram), with
    entries no admissible triple would have: signed zeros, subnormals and
    magnitudes across the double range."""
    mats = {key: _exact_matrix(kind, m, seed + i, injected) for i, (key, kind) in enumerate(TRIPLE_KINDS.items())}
    return SimpleNamespace(
        g=SimpleNamespace(gram=mats["g"]), j=SimpleNamespace(mat=mats["j"]), omega=SimpleNamespace(gram=mats["omega"])
    )


class TestStreamedWriters:
    @pytest.mark.parametrize("m", [2, 8, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_triple_bytes_equal_per_entry_reference(self, tmp_path, m, seed):
        trip = _stand_in_triple(m, seed, [(i * 37, v) for i, v in enumerate(SPECIAL_ENTRIES * 2)])
        meta = {"residuals": {"a": 5e-324, "b": -0.0, "c": 1.7976931348623157e308}, "note": "x"}
        path = tmp_path / "t.json"
        save_triple(path, trip, meta=meta)
        mats = {"g": trip.g.gram, "j": trip.j.mat, "omega": trip.omega.gram}
        ref = {key: reference_matrix_section(mat, TRIPLE_KINDS[key]) for key, mat in mats.items()}
        assert path.read_bytes() == (reference_canonical_json({**ref, "meta": meta}) + "\n").encode()

    @pytest.mark.parametrize("bad", [None, 1j, np.zeros(2)])
    def test_meta_the_renderer_refuses_leaves_the_file_as_it_was(self, tmp_path, bad):
        trip = _stand_in_triple(2, 0)
        for path, write in ((tmp_path / "t.json", lambda p, meta: save_triple(p, trip, meta=meta)),
                            (tmp_path / "u.json", lambda p, meta: save_matrix(p, np.eye(2), "real_general", meta))):
            write(path, {"x": 0.5})
            before = path.read_bytes()
            with pytest.raises(TypeError):
                write(path, {"residuals": {"x": 0.5}, "z": bad})
            assert path.read_bytes() == before

    @pytest.mark.parametrize("n", [1, 17, 128])
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_file_equals_its_list_rendering(self, tmp_path, kind, n):
        # the block formatter against the scalar path, which formats each float on its own
        mat = _exact_matrix(kind, n, n, [(i * 37, v) for i, v in enumerate(SPECIAL_ENTRIES * 2)])
        save_matrix(tmp_path / "m.json", mat, kind)
        assert (tmp_path / "m.json").read_text() == canonical_json(matrix_payload(mat, kind)) + "\n"

    def test_writers_hold_one_row_not_the_file(self, tmp_path):
        # the files hold 4.9 and 0.85 MB of text; a streamed write holds one
        # block of rows of it and that block's temporaries
        trip = _stand_in_triple(256, 0)
        u = _exact_matrix("complex_general", 128, 3, ())
        for write in (lambda: save_triple(tmp_path / "t.json", trip, meta={"residuals": {"x": 0.5}}),
                      lambda: save_matrix(tmp_path / "u.json", u, "complex_general")):
            tracemalloc.start()
            try:
                write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6


def _outcome(load, path):
    """(kind, dtype, array bytes) of a load, or the text of its FileFormatError."""
    try:
        kind, mat = load(path)
    except FileFormatError as exc:
        return str(exc)
    return kind, mat.dtype.str, mat.tobytes()


def _matrix_text(kind: str, dim: str, data: str) -> str:
    return f'{{"kind": "{kind}", "dim": {dim}, "data": {data}}}'


def _write_large(path, content: bytes) -> None:
    """``content`` padded with trailing spaces to a size orjson parses."""
    path.write_bytes(content + b" " * 700_000)


LITERALS = ("-0", "-0.0", "-0e5", "1e400", "-1e400", "1e-400", "5e-324", "NaN", "Infinity", "-Infinity",
            "1" * 19, "9" * 20, HUGE, str(2**63), str(2**64), str(2**64 - 1), str(-(2**63) - 1))


class TestParserEquivalence:
    """load_matrix gives the arrays and messages of the stdlib parser, byte for byte."""

    @pytest.mark.parametrize("literal", LITERALS)
    @pytest.mark.parametrize(
        "template",
        [_matrix_text("real_general", "1", "[{}]"), _matrix_text("real_general", "2", '[1, {}, "x", 4]'),
         _matrix_text("complex_general", "1", "[[0.5, {}]]"), _matrix_text("complex_general", "1", '[[{}, "x"]]'),
         _matrix_text("real_general", "{}", "[1]"), '{"kind": {}, "dim": 1, "data": [1]}'],
        ids=["entry", "before-bad-entry", "pair", "bad-pair", "dim", "kind"],
    )
    def test_literal(self, tmp_path, literal, template):
        path = tmp_path / "m.json"
        _write_large(path, template.replace("{}", literal).encode())
        assert _outcome(load_matrix, path) == _outcome(reference_load_matrix, path)

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff" + _matrix_text("real_general", "1", "[2.5]"),
            '{"kind": "real_general",\r\n "dim": 2,\r\n "data": [1, 2, 3, 4]\r\n}\r\n',
            '{"kind": "real_general",\r\n "dim": 2,\r\n "data": [1, 2, 3,, 4]\r\n}\r\n',
            '{"kind": "real_general",\r "dim": 2,\r "data": [1, 2 3, 4]}',
            _matrix_text("real_general", "1", "[-0.75]")[:-1] + ', "meta": "\\ud800"}',
            '{"kind": "real_general", "dim": 2, "data": [1], "dim": 1, "data": [[0, 1]], "data": [7]}',
            "",
            "[1, 2]",
            '{"kind": "real_general", "dim": 1, "data": [1]} x',
            '{"kind": "real_general", "dim": 1, "data": [01]}',
            '{"kind": "real_general", "dim": 1, "data": ["\t"]}',
            '{"kind": "real_general", "dim": 1, "data": [1e-0]}',
            _matrix_text("real_general", "1", "[" * 500 + "]" * 500),
        ],
        ids=["bom", "crlf", "crlf-syntax-error", "cr-syntax-error", "lone-surrogate", "duplicate-keys", "empty",
             "top-level-list", "trailing-data", "leading-zero", "control-character", "exponent-minus-zero",
             "nested-500"],
    )
    def test_file(self, tmp_path, text):
        path = tmp_path / "m.json"
        _write_large(path, text.encode())
        assert _outcome(load_matrix, path) == _outcome(reference_load_matrix, path)

    @pytest.mark.parametrize("kind", ["real_general", "complex_general"])
    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    def test_random_bit_patterns(self, tmp_path, kind, fmt):
        # finite doubles from subnormals to 1e±308, written as the writer
        # writes them and as Python's repr
        n = 192 if kind == "real_general" else 128
        bits = np.random.default_rng(25).integers(0, 2**64, size=2 * n * n + 1000, dtype=np.uint64)
        values = bits.view(float)
        values = values[np.isfinite(values)][: (1 if kind == "real_general" else 2) * n * n]
        words = [repr(v) if fmt == "repr" else "%.17g" % v for v in values.tolist()]
        pairs = [f"[{re}, {im}]" for re, im in zip(words[0::2], words[1::2])]
        path = tmp_path / "m.json"
        path.write_text(_matrix_text(kind, str(n), "[" + ", ".join(words if kind == "real_general" else pairs) + "]"))
        assert path.stat().st_size > 700_000  # parsed by orjson
        got = _outcome(load_matrix, path)
        assert got == _outcome(reference_load_matrix, path)
        assert got[2] == values.tobytes()

    @pytest.mark.parametrize("value", ["true", "false", "null", '"1.5"', '"12"', "[1.5]", "{}", "[0, 1, 0]"])
    @pytest.mark.parametrize(
        "template",
        [_matrix_text("real_general", "2", "[1, {}, 0, -1]"), _matrix_text("complex_general", "2", "[[1, 0], {}, [0, 1], [-1, 0]]"),
         _matrix_text("complex_general", "2", "[[1, 0], [0, {}], [0, 1], [-1, 0]]")],
        ids=["entry", "pair", "in-pair"],
    )
    def test_value_one_conversion_refuses(self, tmp_path, value, template):
        # what one conversion of the whole section could let through: a boolean
        # converts to 0 or 1, a two-character string has a pair's length
        path = tmp_path / "m.json"
        _write_large(path, template.replace("{}", value).encode())
        got = _outcome(load_matrix, path)
        assert got == _outcome(reference_load_matrix, path)
        assert got.startswith(f"{path}: data[1]: expected a ")

    @pytest.mark.parametrize("data", ["[[1, 2, 3], [4], [0, 1], [1, 0]]", "[[0, 1], [1, 0], [0], [1, 0, 0]]"])
    def test_ragged_pairs_with_the_right_count_refused(self, tmp_path, data):
        path = tmp_path / "m.json"
        _write_large(path, _matrix_text("complex_general", "2", data).encode())
        got = _outcome(load_matrix, path)
        assert got == _outcome(reference_load_matrix, path)
        assert got.startswith(f"{path}: data[{0 if data.startswith('[[1, 2') else 2}]: expected a [re, im] pair")

    @pytest.mark.parametrize("kind", ["real_general", "complex_general"])
    def test_entries_mostly_zero_and_unit(self, tmp_path, kind):
        # like a canonical J: nearly every entry is a 0 or 1, where a boolean could hide
        n = 192 if kind == "real_general" else 128
        mat = np.kron(np.eye(n // 2), J2)
        mat.flat[::7] = -0.0
        if kind == "complex_general":
            mat = mat + 1j * np.roll(mat, 1, axis=0)
        flat = mat.ravel().view(float).tolist()
        entries = ["-0.0" if np.signbit(v) and v == 0 else repr(v) if i % 2 else str(int(v)) for i, v in enumerate(flat)]
        if kind == "complex_general":
            entries = [f"[{re}, {im}]" for re, im in zip(entries[0::2], entries[1::2])]
        path = tmp_path / "m.json"
        _write_large(path, _matrix_text(kind, str(n), "[" + ", ".join(entries) + "]").encode())
        got = _outcome(load_matrix, path)
        assert got == _outcome(reference_load_matrix, path) == (kind, mat.dtype.str, mat.tobytes())
        for bad in ("true", "false"):
            at = len(entries) - 5
            entries[at] = f"[0, {bad}]" if kind == "complex_general" else bad
            _write_large(path, _matrix_text(kind, str(n), "[" + ", ".join(entries) + "]").encode())
            got = _outcome(load_matrix, path)
            assert got == _outcome(reference_load_matrix, path)
            assert got.startswith(f"{path}: data[{at}]: expected a ")

    def test_stdlib_parses_only_on_a_trigger(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(26)
        calls = []
        stdlib_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(1) or stdlib_loads(*a, **kw))
        save_matrix(tmp_path / "h.json", random_hpd(rng, 128), "complex_hermitian")
        save_triple(tmp_path / "t.json", triple_from_g_j(*random_admissible_pair(rng, 128)))
        load_matrix(tmp_path / "h.json")
        load_triple(tmp_path / "t.json")
        assert calls == []
        signed = random_spd(rng, 192)
        signed[0, 1] = signed[1, 0] = -0.0
        save_matrix(tmp_path / "z.json", signed, "real_symmetric")
        assert (tmp_path / "z.json").stat().st_size > 700_000
        assert np.signbit(load_matrix(tmp_path / "z.json")[1][:2, :2]).tolist() == [[False, True], [True, False]]
        assert calls == [1]
        save_matrix(tmp_path / "small.json", random_hpd(rng, 8), "complex_hermitian")
        load_matrix(tmp_path / "small.json")
        assert calls == [1, 1]


class TestMalformedBytes:
    @pytest.mark.parametrize("write", [Path.write_bytes, _write_large], ids=["small", "large"])
    def test_not_utf8_is_format_error(self, tmp_path, write):
        path = tmp_path / "m.json"
        write(path, b'{"kind": "real_general", "dim": 1, "data": [1], "meta": "caf\xff"}')
        with pytest.raises(FileFormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == (
            f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 60: invalid start byte"
        )

    @pytest.mark.parametrize("write", [Path.write_bytes, _write_large], ids=["small", "large"])
    @pytest.mark.parametrize("depth", [1000, 1030, 200_000])  # past the recursion limit, the depth bound, the C stack
    def test_deep_nesting_is_format_error(self, tmp_path, write, depth):
        path = tmp_path / "m.json"
        write(path, _matrix_text("real_general", "1", "[" * depth + "]" * depth).encode())
        with pytest.raises(FileFormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: JSON nested too deeply"


@pytest.fixture
def gc_state():
    """Sets the collector on or off for a test and restores it after."""
    before = gc.isenabled()
    yield lambda on: (gc.enable if on else gc.disable)()
    (gc.enable if before else gc.disable)()


class TestLoadCost:
    @pytest.mark.parametrize("on", [True, False])
    @pytest.mark.parametrize("refused", [False, True])
    def test_loaders_leave_the_collector_as_found(self, tmp_path, gc_state, on, refused):
        rng = np.random.default_rng(27)
        save_matrix(tmp_path / "h.json", random_hpd(rng, 128), "complex_hermitian")
        save_triple(tmp_path / "t.json", triple_from_g_j(*random_admissible_pair(rng, 8)))
        if refused:
            for name in ("h.json", "t.json"):
                text = (tmp_path / name).read_text()
                _write_large(tmp_path / name, text.replace("[", "[true, ", 1).encode())
        for load, name in ((load_matrix, "h.json"), (load_triple, "t.json")):
            gc_state(on)
            try:
                load(tmp_path / name)
            except FileFormatError:
                assert refused
            else:
                assert not refused
            assert gc.isenabled() is on

    def test_complex_load_runs_no_collection(self, tmp_path, gc_state):
        # each [re, im] list of the parsed tree counts toward a collection
        # unless the collector is paused; the parse alone would run about 23
        save_matrix(tmp_path / "h.json", random_hpd(np.random.default_rng(28), 128), "complex_hermitian")
        gc_state(True)
        starts = []
        gc.collect()
        gc.callbacks.append(on_phase := lambda phase, info: starts.append(info) if phase == "start" else None)
        try:
            load_matrix(tmp_path / "h.json")
        finally:
            gc.callbacks.remove(on_phase)
        assert starts == []

    def test_loads_hold_no_copy_of_the_file(self, tmp_path):
        # the 4.4 MB triple file and its parsed tree peak at 12.86 MB traced,
        # measured before the one-pass section conversion; a copy of the whole
        # text, even a passing one in the gate in front of orjson, shows here
        rng = np.random.default_rng(29)
        save_triple(tmp_path / "t.json", triple_from_g_j(*random_admissible_pair(rng, 256)))
        save_matrix(tmp_path / "h.json", random_hpd(rng, 128), "complex_hermitian")
        load_triple(tmp_path / "t.json")

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: load_triple(tmp_path / "t.json")) < 13.0e6
        for name in ("t.json", "h.json"):
            raw = (tmp_path / name).read_bytes()
            assert peak(lambda: _orjson_reads(raw)) < len(raw) / 4
