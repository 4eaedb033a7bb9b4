"""Matrix and triple file formats.

A matrix file is a JSON object with an explicit ``kind`` tag so symmetry
can be validated at the boundary, before any numerics run:

    {"kind": "real_symmetric", "dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}

``data`` is the row-major matrix; real kinds carry dim^2 numbers,
complex kinds dim^2 ``[re, im]`` pairs.  A triple file bundles three
matrix sections under ``g``, ``j`` and ``omega``.  Writers may add a
``meta`` section (residuals and the like); readers ignore unknown keys,
so every emitted artifact reloads as a valid input.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .forms import DEFAULT_TOLERANCES, ComplexStructureJ, RealForm, Tolerances, _asymmetry
from .report import canonical_json
from .triples import AdmissibleTriple

__all__ = [
    "REAL_KINDS",
    "COMPLEX_KINDS",
    "MATRIX_KINDS",
    "load_matrix",
    "save_matrix",
    "load_triple",
    "save_triple",
    "matrix_payload",
]

REAL_KINDS = ("real_symmetric", "real_antisymmetric", "real_general")
COMPLEX_KINDS = ("complex_hermitian", "complex_general")
MATRIX_KINDS = REAL_KINDS + COMPLEX_KINDS
# kind -> sign passed to forms._asymmetry, and the word its diagnostic uses
_SYMMETRY = {"real_symmetric": (1, "symmetric"), "real_antisymmetric": (-1, "antisymmetric"),
             "complex_hermitian": (1, "Hermitian")}
_NUMBER_TYPES = {int, float}  # exact types: a JSON boolean is not a number


def _parse_int(literal: str):
    # The writer prints -0.0 as "-0", which int() would read as 0.
    return -0.0 if literal == "-0" else int(literal)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read file: {exc}") from exc
    try:
        obj = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise FileFormatError(f"{path}: integer too large for a double: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return obj


def _parse_entries(data: list, pairs: bool, where: str) -> np.ndarray:
    """The ``data`` entries as one flat float array, or complex for pairs.

    An entry must be a JSON number (not a boolean) that is finite as a
    double; a complex kind's entry is a pair of them.  Valid input is
    checked and converted by whole-list operations.  Only when a check
    fails are the entries walked in order, so the ``data[i]`` diagnostic
    names the first bad entry, as an entry-by-entry check would.
    """
    if pairs:
        shaped = set(map(type, data)) == {list} and set(map(len, data)) == {2}
        flat = list(chain.from_iterable(data)) if shaped else []
    else:
        shaped, flat = True, data
    if shaped and set(map(type, flat)) <= _NUMBER_TYPES:
        try:
            values = np.fromiter(flat, dtype=float, count=len(flat))
        except OverflowError:  # an integer beyond the double range
            pass
        else:
            if np.isfinite(values).all():
                return values.view(complex) if pairs else values

    def bad(i, msg):
        return FileFormatError(f"{where}: data[{i}]: {msg}")

    for i, v in enumerate(data):
        if pairs:
            if not isinstance(v, list) or len(v) != 2 or not all(type(p) in _NUMBER_TYPES for p in v):
                raise bad(i, f"expected a [re, im] pair, got {v!r}")
            parts = v
        elif type(v) not in _NUMBER_TYPES:
            raise bad(i, f"expected a real number, got {v!r}")
        else:
            parts = [v]
        for p in parts:
            try:
                finite = math.isfinite(p)
            except OverflowError:
                raise bad(i, "integer too large for a double") from None
            if not finite:
                raise bad(i, f"non-finite entry {v!r}")
    raise AssertionError("whole-list check failed on entries that all pass")


def _parse_matrix_section(
    obj: dict, where: str, tol: Tolerances, expect_kinds: tuple[str, ...] | None
) -> tuple[str, np.ndarray]:
    """The kind and the matrix of one matrix section, whose kind must be
    one of ``expect_kinds`` unless that is None (checked after symmetry)."""
    kind = obj.get("kind")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(
            f"{where}: field 'kind' must be one of {', '.join(MATRIX_KINDS)}, got {kind!r}"
        )
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{where}: field 'dim' must be a positive integer, got {dim!r}")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != dim * dim:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise FileFormatError(
            f"{where}: field 'data' must be a list of {dim * dim} entries, got {got}"
        )

    mat = _parse_entries(data, kind in COMPLEX_KINDS, where).reshape(dim, dim)
    if kind in _SYMMETRY:
        sign, word = _SYMMETRY[kind]
        resid, scale = _asymmetry(mat, sign)
        if resid > tol.tol_sym * scale:
            raise FileFormatError(f"{where}: matrix is not {word} within tolerance")
    if expect_kinds is not None and kind not in expect_kinds:
        raise FileFormatError(f"{where}: expected kind {' or '.join(expect_kinds)}, got {kind}")
    return kind, mat


def load_matrix(
    path,
    expect_kinds: tuple[str, ...] | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[str, np.ndarray]:
    """Load and validate a matrix file.

    Returns the declared kind and the matrix.  ``expect_kinds`` restricts
    the accepted kinds; a mismatch is a format error, not a math error.

    Raises
    ------
    FileFormatError
        On unreadable files, malformed JSON, schema violations,
        non-finite entries, or kind/symmetry mismatches.
    """
    return _parse_matrix_section(_load_json(path), str(path), tol, expect_kinds)


def matrix_payload(mat: np.ndarray, kind: str) -> dict:
    """MatrixFile JSON object for a matrix."""
    mat = np.asarray(mat)
    if kind in REAL_KINDS:
        data = np.real(mat).astype(float).ravel().tolist()
    elif kind in COMPLEX_KINDS:
        data = np.ascontiguousarray(mat, dtype=complex).view(float).reshape(-1, 2).tolist()
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return {"kind": kind, "dim": int(mat.shape[0]), "data": data}


def _write(path, payload: dict, meta: dict | None) -> None:
    """Write ``payload``, with ``meta`` as its meta section when given, as canonical JSON."""
    if meta is not None:
        payload["meta"] = meta
    Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8")


def save_matrix(path, mat: np.ndarray, kind: str, meta: dict | None = None) -> None:
    """Write a matrix file (canonical JSON, optional meta section)."""
    _write(path, matrix_payload(mat, kind), meta)


def load_triple(path, tol: Tolerances = DEFAULT_TOLERANCES) -> AdmissibleTriple:
    """Load a triple bundle and rebuild the validated admissible triple.

    Format errors raise :class:`FileFormatError`; a well-formed bundle
    whose matrices fail admissibility raises the corresponding
    mathematical error from the constructors instead.
    """
    obj = _load_json(path)
    sections = {}
    for key, kinds in (("g", ("real_symmetric",)), ("j", ("real_general",)),
                       ("omega", ("real_antisymmetric",))):
        sec = obj.get(key)
        if not isinstance(sec, dict):
            raise FileFormatError(f"{path}: missing or invalid section '{key}'")
        sections[key] = _parse_matrix_section(sec, f"{path}:{key}", tol, kinds)[1]
    g = RealForm(sections["g"], "symmetric", tol)
    j = ComplexStructureJ(sections["j"], tol)
    omega = RealForm(sections["omega"], "antisymmetric", tol)
    return AdmissibleTriple(g, j, omega, tol)


def save_triple(path, triple: AdmissibleTriple, meta: dict | None = None) -> None:
    """Write an admissible triple as a bundle of three matrix sections."""
    payload = {
        "g": matrix_payload(triple.g.gram, "real_symmetric"),
        "j": matrix_payload(triple.j.mat, "real_general"),
        "omega": matrix_payload(triple.omega.gram, "real_antisymmetric"),
    }
    _write(path, payload, meta)
