"""Report rendering: canonical JSON against the entry-by-entry oracle."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from biherm import report
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
    if pick == 1:  # all floats
        return [_float(rng) for _ in range(n)]
    if pick == 2:  # ints and floats mixed
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


def _edge_values() -> list[float]:
    """Where the block formatter's branches meet, each value with its neighbours: the smallest
    subnormal, the smallest normal, the largest double, the %g switch points 1e-5/1e-4 and
    1e16/1e17, and every power of ten; then doubles whose 17 digits carry into the next decade,
    and exact ties, whose 18th digit is a final 5.  Zeros and negatives too."""
    edges = np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4, 1e16, 1e17]
                     + [float(f"1e{e}") for e in range(-323, 309)])
    with np.errstate(over="ignore"):
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    near = near[np.isfinite(near)].tolist()
    carries = [x for x in near if ("%.17g" % x).split("e")[0].strip("0.") == "1" and Fraction("%.17g" % x) > x]
    ties = [2**50 + 0.25, 2**50 + 0.75]
    for j in (2, 3, 5, 8, 13, 21):  # m / 2^j with m odd and m·5^j of 18 digits
        m = -(-(10**17) // 5**j) | 1
        ties += [(m + 2 * i) / 2**j for i in range(4)]
    assert len(carries) >= 10 and all(Decimal(t).as_tuple().digits[17:] == (5,) for t in ties)
    values = near + carries + ties + [0.0]
    return values + [-v for v in values]


def _matrix_entries(rng, count: int) -> np.ndarray:
    """``count`` floats: random bit patterns (every exponent) mixed with the edge values."""
    bits = rng.integers(0, 2**64, count, dtype=np.uint64).view(float)
    edges = np.array(_edge_values())
    pick = rng.random(count) < 0.5
    bits[pick] = edges[rng.integers(len(edges), size=pick.sum())]
    return np.where(np.isfinite(bits), bits, -0.0)


def _reference_data(arr: np.ndarray) -> str:
    if np.iscomplexobj(arr):
        return reference_canonical_json([[z.real, z.imag] for z in arr.ravel().tolist()])
    return reference_canonical_json(arr.ravel().tolist())


def test_matrix_data_rows_against_reference():
    rng = np.random.default_rng(9)
    edges = np.array(_edge_values())
    edges = np.concatenate([edges, np.zeros(-len(edges) % 62)])  # every edge value, in rows of 62 floats
    for arr in (edges.reshape(-1, 62), edges.view(complex).reshape(-1, 31)):
        assert canonical_json(MatrixData(arr)) == _reference_data(arr)
    for n in (1, 2, 17, 33):
        real = _matrix_entries(rng, n * n).reshape(n, n)
        cplx = _matrix_entries(rng, 2 * n * n).view(complex).reshape(n, n)
        for arr in (real, cplx, cplx.real, cplx.imag, real.T):  # .real, .imag and .T are strided views
            assert canonical_json(MatrixData(arr)) == _reference_data(arr)


def test_matrix_data_without_the_fast_path(monkeypatch):
    rng = np.random.default_rng(10)
    arrays = [_matrix_entries(rng, 17 * 34).view(complex).reshape(17, 17),
              _matrix_entries(rng, 33 * 33).reshape(33, 33)]
    fast = [canonical_json(MatrixData(arr)) for arr in arrays]
    monkeypatch.setattr(report, "_FAST", False)
    assert [canonical_json(MatrixData(arr)) for arr in arrays] == fast == [_reference_data(arr) for arr in arrays]


def test_power_table_within_half_an_ulp():
    scale, hi, hh, hl, lo = report._tables()[:5]
    for i, (s, h, a, b, r) in enumerate(zip(scale.tolist(), hi.tolist(), hh.tolist(), hl.tolist(), lo.tolist())):
        c = Fraction(10) ** (16 - (i - report._K0)) / Fraction(2) ** s  # 10^(16 - k) scaled into [1, 2)
        assert 1 <= c < 2
        assert abs(c - Fraction(*h.as_integer_ratio())) <= Fraction(math.ulp(h)) / 2
        assert abs(c - Fraction(*h.as_integer_ratio()) - Fraction(*r.as_integer_ratio())) <= Fraction(math.ulp(r)) / 2
        assert a + b == h and all((v * 2.0 ** (26 - math.frexp(v)[1])).is_integer() for v in (a, b))  # 26 bits each


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
