"""Matrix and triple file formats.

A matrix file is a JSON object with an explicit ``kind`` tag so symmetry
can be validated at the boundary, before any numerics run:

    {"kind": "real_symmetric", "dim": 2, "data": [1.0, 0.0, 0.0, 1.0]}

``data`` is the row-major matrix; real kinds carry dim^2 numbers,
complex kinds dim^2 ``[re, im]`` pairs.  A triple file bundles three
matrix sections under ``g``, ``j`` and ``omega``.  Readers ignore the ``meta``
section writers may add.  Writers raise ValueError, before opening the file, on
what the loader refuses at default tolerances, so every emitted artifact reloads
as a valid input.  Writers stream a file a block of rows at a time.  Loaders
parse with orjson and fall back to the stdlib parser, the reference, wherever
orjson's values or messages could differ, so both give identical results.
A section's entries are converted in one pass; only those reading 0 or 1, where
a boolean could hide, are type-checked.  The cyclic collector is paused from the
parse until the parsed tree is freed.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
import struct
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .forms import DEFAULT_TOLERANCES, ComplexStructureJ, RealForm, Tolerances, _within_tol_sym
from .report import MatrixData, canonical_json, write_canonical_json
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
_SYMMETRY = {"real_symmetric": (1, "symmetric"), "real_antisymmetric": (-1, "antisymmetric"),  # (sign, word)
             "complex_hermitian": (1, "Hermitian")}
_NUMBER_TYPES = {int, float}  # exact types: a JSON boolean is not a number
_CHUNK = 8192  # entries per struct call, so its argument tuple stays small
_TRIPLE_SECTIONS = (("g", "real_symmetric"), ("j", "real_general"), ("omega", "real_antisymmetric"))


def _parse_int(literal: str):
    # The writer prints -0.0 as "-0", which int() would read as 0.
    return -0.0 if literal == "-0" else int(literal)


_NEG_ZERO_INT = re.compile(rb"-0(?![0-9.eE])")  # no digit, '.' or exponent after it
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _orjson_reads(raw: bytes) -> bool:
    """Whether orjson 3.8 may parse ``raw``: it reads the integer -0 as 0, parses
    a document under 8 MiB / 12 bytes in an 8 MiB buffer it keeps for good, and
    overflows the C stack on deep nesting.  Under 1024 openers bound the depth;
    else, with all but brackets and quotes deleted, then each ``[]`` (a leaf
    array or string content), the openers left do."""
    if len(raw) < (8 << 20) // 12 or _NEG_ZERO_INT.search(raw):
        return False
    openers = 0
    for opener in b"[{":  # each find stops at the next opener, the loop at the 1024th
        at = raw.find(opener)
        while at >= 0 and openers < 1024:
            openers, at = openers + 1, raw.find(opener, at + 1)
    if openers < 1024:
        return True
    step = 1 << 15  # translate allocates its input's size: a slice at a time
    skeleton = b"".join(raw[i:i + step].translate(None, _NOT_STRUCTURE) for i in range(0, len(raw), step))
    skeleton = skeleton.replace(b"[]", b"")
    return skeleton.count(b"[") + skeleton.count(b"{") < 1024


def _load_json(path, parse):
    """``parse`` of the top-level JSON object in file ``path``.

    The stdlib parser, the reference for values and messages, reads what orjson
    may not, what orjson rejects (NaN, infinities, literals beyond the double
    range, invalid UTF-8, a BOM, syntax) and what ``parse`` rejects from orjson:
    only a diagnostic shows an integer outside [-2**63, 2**64), a float to orjson.
    The collector is paused from the parse until the parsed tree, which holds no
    cycle, is freed, then set back as the caller had it.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read file: {exc}") from exc

    def checked(obj):
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}: top level must be a JSON object")
        return parse(obj)

    enabled, obj = gc.isenabled(), None
    gc.disable()
    try:
        if _orjson_reads(raw):
            import orjson  # here, not at import: orjson imports zoneinfo (about 5 ms)
            try:
                return checked(orjson.loads(raw))
            except (orjson.JSONDecodeError, FileFormatError, RecursionError):  # the last from a diagnostic's repr
                pass
        try:
            text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()  # as Path.read_text decodes
            obj = json.loads(text, parse_int=_parse_int)
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer literal longer than int() accepts
            raise FileFormatError(f"{path}: integer too large for a double: {exc}") from exc
        except RecursionError as exc:
            raise FileFormatError(f"{path}: JSON nested too deeply") from exc
        return checked(obj)
    finally:
        obj = None  # the tree goes before the collector resumes
        if enabled:
            gc.enable()


def _parse_entries(data: list, pairs: bool, where: str) -> np.ndarray:
    """The ``data`` entries as one flat float array, or complex for pairs.

    An entry must be a JSON number (not a boolean) that is finite as a
    double; a complex kind's entry is a pair of them.  ``struct.pack_into``
    converts valid input in one pass and refuses every other JSON value but a
    boolean, which reads 0 or 1: only entries of those values are type-checked.
    Only when a check fails are the entries walked in order, so the ``data[i]``
    diagnostic names the first bad entry, as an entry-by-entry check would.
    """
    values = np.empty(len(data) * (1 + pairs))
    flat = chain.from_iterable(data) if pairs else iter(data)
    try:
        if pairs and set(map(len, data)) != {2}:
            raise TypeError("not a list of pairs")
        for at in range(0, len(values), _CHUNK):
            struct.pack_into(f"{min(_CHUNK, len(values) - at)}d", values, 8 * at, *islice(flat, _CHUNK))
    except (TypeError, struct.error):  # a non-number, an integer beyond the double range, a bad pair
        pass
    else:
        unit = np.flatnonzero((values == 0) | (values == 1))  # where a boolean could hide
        held = map(data.__getitem__, (unit // 2 if pairs else unit).tolist())
        if np.isfinite(values).all() and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(held) if pairs else held)):
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


def _kind_defect(mat: np.ndarray, kind: str, tol: Tolerances) -> str | None:
    """Why ``mat`` is not of ``kind`` (an imaginary part, a missed symmetry) or None; loader and writers both ask."""
    if kind in REAL_KINDS and np.iscomplexobj(mat) and np.any(mat.imag):
        return f"matrix of kind {kind} has a nonzero imaginary part"
    sign, word = _SYMMETRY.get(kind, (0, ""))
    return f"matrix is not {word} within tolerance" if sign and not _within_tol_sym(mat, sign, tol) else None


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
    if defect := _kind_defect(mat, kind, tol):
        raise FileFormatError(f"{where}: {defect}")
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
    return _load_json(path, lambda obj: _parse_matrix_section(obj, str(path), tol, expect_kinds))


def _section(mat: np.ndarray, kind: str) -> dict:
    """A matrix section, its ``data`` the matrix as a MatrixData.

    Raises ValueError on what the loader would reject at its default tolerances: an
    unknown kind, a non-square or empty array, a non-finite entry, or a :func:`_kind_defect`.
    """
    mat = np.asarray(mat)
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {mat.shape}")
    arr = np.ascontiguousarray(mat, dtype=complex if kind in COMPLEX_KINDS or np.iscomplexobj(mat) else float)
    if not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    if defect := _kind_defect(arr, kind, DEFAULT_TOLERANCES):
        raise ValueError(defect)
    return {"kind": kind, "dim": len(arr), "data": MatrixData(arr.real if kind in REAL_KINDS else arr)}


def matrix_payload(mat: np.ndarray, kind: str) -> dict:
    """MatrixFile JSON object for a matrix."""
    payload = _section(mat, kind)
    a = payload["data"].array
    payload["data"] = a.view(float).reshape(-1, 2).tolist() if kind in COMPLEX_KINDS else a.ravel().tolist()
    return payload


def _write(path, payload: dict, meta: dict | None) -> None:
    """Write ``payload``, with ``meta`` as its meta section when given, as canonical JSON."""
    if meta is not None:
        canonical_json(meta)  # a value it refuses raises TypeError before the file is truncated
        payload["meta"] = meta
    write_canonical_json(path, payload)


def save_matrix(path, mat: np.ndarray, kind: str, meta: dict | None = None) -> None:
    """Write a matrix file (canonical JSON, optional meta section).

    ``meta`` holds dicts, lists, tuples, strings and bool, int or float values
    (Python or numpy); any other, ``None`` included, raises TypeError unwritten.
    """
    _write(path, _section(mat, kind), meta)


def load_triple(path, tol: Tolerances = DEFAULT_TOLERANCES) -> AdmissibleTriple:
    """Load a triple bundle and rebuild the validated admissible triple.

    Format errors raise :class:`FileFormatError`; a well-formed bundle
    whose matrices fail admissibility raises the corresponding
    mathematical error from the constructors instead.
    """
    def sections(obj: dict) -> list[np.ndarray]:
        mats = []
        for key, kind in _TRIPLE_SECTIONS:
            sec = obj.get(key)
            if not isinstance(sec, dict):
                raise FileFormatError(f"{path}: missing or invalid section '{key}'")
            mats.append(_parse_matrix_section(sec, f"{path}:{key}", tol, (kind,))[1])
        return mats

    g, j, omega = _load_json(path, sections)
    return AdmissibleTriple(RealForm(g, "symmetric", tol), ComplexStructureJ(j, tol),
                            RealForm(omega, "antisymmetric", tol), tol)


def save_triple(path, triple: AdmissibleTriple, meta: dict | None = None) -> None:
    """Write an admissible triple as a bundle of three matrix sections; ``meta`` as in :func:`save_matrix`."""
    mats = (triple.g.gram, triple.j.mat, triple.omega.gram)
    _write(path, {key: _section(mat, kind) for (key, kind), mat in zip(_TRIPLE_SECTIONS, mats)}, meta)
