"""Report rendering: canonical JSON against the entry-by-entry oracle."""

import numpy as np
import pytest

from biherm.report import MatrixData, canonical_json, render_report, render_text
from conftest import reference_canonical_json

_STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "tab\there", "line\nbreak", "nul\x00bell\x07\x1f",
    "café", "λ₁ ≤ λ₂", "\U0001d49c", "'single' / slash",
]
_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0, 1.0,
]
_INTS = [0, -1, 1, 2**53 + 1, 2**63 - 1, -(2**63), 2**64, -(10**30)]


def _float(rng) -> float:
    if rng.random() < 0.3:
        return _FLOATS[rng.integers(len(_FLOATS))]
    while True:  # a random bit pattern, so every exponent and digit count shows up
        x = float(rng.integers(0, 2**63, dtype=np.int64).view(float) * rng.choice([-1.0, 1.0]))
        if np.isfinite(x):
            return x


def _scalar(rng):
    pick = rng.integers(4)
    if pick == 0:
        return _float(rng)
    if pick == 1:
        return _INTS[rng.integers(len(_INTS))] if rng.random() < 0.5 else int(rng.integers(-1000, 1000))
    if pick == 2:
        return bool(rng.integers(2))
    return _STRINGS[rng.integers(len(_STRINGS))]


def _value(rng, depth: int = 0):
    """A report-shaped value: nested dicts and lists over the scalars a report holds."""
    pick = rng.integers(5 if depth < 3 else 2)
    n = int(rng.integers(0, 6))
    if pick == 0:
        return _scalar(rng)
    if pick == 1:  # all floats: the one-template path
        return [_float(rng) for _ in range(n)]
    if pick == 2:  # ints and floats mixed: the entry-by-entry path
        return [_float(rng) if rng.random() < 0.5 else int(rng.integers(-9, 9)) for _ in range(n)]
    if pick == 3:
        return [_value(rng, depth + 1) for _ in range(n)]
    return {_STRINGS[rng.integers(len(_STRINGS))] + str(i): _value(rng, depth + 1) for i in range(n)}


def _numpy_twin(value):
    """``value`` with every bool, int and float replaced by its numpy scalar."""
    if isinstance(value, dict):
        return {k: _numpy_twin(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_numpy_twin(v) for v in value]
    if isinstance(value, bool):
        return np.bool_(value)
    if isinstance(value, int):
        return np.int64(value) if -(2**63) <= value < 2**63 else value
    if isinstance(value, float):
        return np.float64(value)
    return value


@pytest.mark.parametrize("seed", range(8))
def test_canonical_json_against_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        value = {"results": _value(rng), "passed": bool(rng.integers(2))}
        expected = reference_canonical_json(value)
        assert canonical_json(value) == expected
        assert canonical_json(_numpy_twin(value)) == expected


def test_special_scalars_against_reference():
    for x in [*_FLOATS, *_INTS, True, False, *_STRINGS]:
        assert canonical_json(x) == reference_canonical_json(x)
        assert canonical_json([x, 0]) == reference_canonical_json([x, 0])
    assert canonical_json(_FLOATS) == reference_canonical_json(_FLOATS)
    assert canonical_json(tuple(_FLOATS)) == reference_canonical_json(_FLOATS)


def test_matrix_data_rows_against_reference():
    rng = np.random.default_rng(9)
    real = rng.standard_normal((3, 3))
    cplx = real + 1j * rng.standard_normal((3, 3))
    assert canonical_json(MatrixData(real)) == reference_canonical_json(real.ravel().tolist())
    pairs = [[z.real, z.imag] for z in cplx.ravel().tolist()]
    assert canonical_json(MatrixData(cplx)) == reference_canonical_json(pairs)


@pytest.mark.parametrize(
    "value",
    [None, 1 + 2j, np.complex128(1j), np.eye(2), {"a": [1.0, None]}, {"a": np.zeros(3)}, [np.complex64(0)]],
    ids=["none", "complex", "np-complex", "ndarray", "nested-none", "nested-ndarray", "listed-np-complex"],
)
def test_refuses_values_outside_the_schema(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json(value)
    with pytest.raises(TypeError, match="cannot serialize"):
        render_text({"results": value})


def test_text_leaves_are_canonical_json():
    report = {"b": [1.5, 2], "a": {"s": 'q"uote', "x": -0.0, "f": [{"k": True}]}}
    assert render_text(report) == "\n".join(
        ["a.f[0].k = true", 'a.s = q"uote', "a.x = -0", "b = [1.5, 2]"]
    )


@pytest.mark.parametrize("fmt", ["yaml", "JSON", ""])
def test_unknown_report_format_rejected(fmt):
    with pytest.raises(ValueError, match=f"^unknown report format {fmt!r}$"):
        render_report({"a": 1}, fmt)
