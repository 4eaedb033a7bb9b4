"""Deterministic report rendering.

Reports are plain dicts rendered either as canonical JSON (sorted keys,
floats at 17 significant digits) or as a flat sorted ``path = value``
text listing.  Identical inputs produce byte-identical output, which the
golden-file tests rely on.  One generator renders every JSON value as
string pieces, a matrix file's ``data`` one block of at most 16 rows per
piece, which :func:`write_canonical_json` streams to a file.  A value is a
dict, a list or tuple, a :class:`MatrixData`, a string, or a bool, int or
float (Python or numpy); anything else, ``None``, complex scalars and
ndarrays included, raises TypeError.  So does a float that is not
finite, in a MatrixData too, since JSON has no inf or nan.  A matrix
reaches a report only as MatrixData, whose block formatter alone writes
``[re, im]`` pairs.  That formatter writes the bytes of ``"%.17g" % x``
for every entry: numpy computes the 17 digits of most entries at once,
and ``%`` formats the few whose rounding it cannot prove.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MatrixData", "canonical_json", "write_canonical_json", "render_text", "render_report"]


@dataclass(frozen=True, eq=False)
class MatrixData:
    """A matrix file's ``data``: its row-major floats, or ``[re, im]`` pairs, kept as the 2-D array."""

    array: np.ndarray


# The block formatter.  For x != 0 with decimal exponent k, "%.17g" prints
# the integer D nearest to y = |x|·10^(16-k) in [1e16, 1e17), in fixed form
# for -4 <= k < 17, else with an exponent, and strips trailing zeros.  y is
# p + r: p + e is the error-free product (Dekker's split, no fused
# multiply-add) of x·2^s by c_k = 10^(16-k)·2^-s in [1, 2) rounded to a
# double, and r adds e to x·2^s times c_k's remainder.
_BAND = 2.0**-40  # fractions of y this close to 1/2 go to "%": 128 times the error bound
_BLOCK = 2048  # floats per block: enough to spread numpy's per-call cost, few enough for the 1 MB writer bound
_K0 = 330  # the tables cover k = -330 .. 329


def _word(text: bytes, at: int = 0) -> int:
    return int.from_bytes(bytes(at) + text, "little")


def _split(v):
    """(hi, lo) with v = hi + lo exactly, each half of v's significand."""
    hi = (t := v * 134217729.0) - (t - v)  # t = v·(2^27 + 1)
    return hi, v - hi


def _exact_products() -> bool:
    """Whether numpy's float64 products round to nearest, unfused, as the error-free product needs."""
    v = np.array([1 + 2.0**-52])
    (hi, lo), p = _split(v), v * v
    return p[0] == 1 + 2.0**-51 and (((hi * hi - p) + hi * lo + lo * hi) + lo * lo)[0] == 2.0**-104


_FAST = _exact_products()  # else "%" formats every entry
_ENDS = {False: np.array([[0, _word(b", ", 5)]], np.uint64),  # (first, last) word of each value
         True: np.array([[_word(b"["), _word(b", ", 5)], [0, _word(b"], ", 5)]], np.uint64)}


@functools.cache
def _tables():
    """Per k: s, c_k rounded to a double and split, the remainder's nearest double, the words
    before and after the digits, the digits before the point; then the digit and byte tables."""
    rows = []
    for k in range(-_K0, _K0):  # n / d = c_k; int true division rounds to nearest
        n, d = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        s = n.bit_length() - d.bit_length()
        n, d = (n, d << s) if s >= 0 else (n << -s, d)
        s, n = (s - 1, n << 1) if n < d else (s, n)
        num, den = (c := n / d).as_integer_ratio()
        rows.append((s, c, (n * den - num * d) / (d * den), _word(b"0." + b"0" * (-k - 1), 2) if -4 <= k < 0 else 0,
                     0 if -4 <= k < 17 else _word(b"e%+03d" % k), k + 1 if 0 <= k < 17 else 18 if -4 <= k < 0 else 1))
    scale, c, rem, lead, expo, point = map(np.array, zip(*rows))
    quads = sum((np.arange(10**4, dtype=np.uint64) // 10**i % 10 + 48) << 24 - 8 * i for i in range(4))  # "0000".."9999"
    keep = np.array([np.frombuffer(bytes(3) + b"\xff" * m + bytes(21 - m), np.uint64) for m in range(18)])
    dots = [np.frombuffer(bytes(3 + m) + b"." + bytes(20 - m), np.uint64) for m in range(18)] + [[0] * 3]
    return (scale, c, *_split(c), rem, lead.astype(np.uint64), expo.astype(np.uint64), point, quads,
            keep.T.copy(), np.array(dots, np.uint64).T.copy(), keep[17] & _word(b"0" * 8))


def _block_text(x: np.ndarray, ends: np.ndarray) -> str:
    """``"%.17g" % v`` for each v of the float array ``x``, each between its ``ends``.

    A non-finite entry raises TypeError, since JSON has no inf or nan.

    Error bound on y, in units of D's last digit: c_k's double and remainder
    are within 2^-106·c_k of it, x·2^s times the remainder rounds by at most
    2^-50 and r by 2^-49, so |y - p - r| < 2^-47.  An entry goes to ``%``
    when the fraction of y lies within ``_BAND`` of 1/2, exact ties among
    them, or when y is not in [1e16, 1e17 - 1): log10 missed k, or D may
    carry into the next decade.  Each entry's text fills 5 words of an
    otherwise NUL array, which one boolean compress joins.
    """
    out = np.zeros((len(x), 5), np.uint64)  # "[-0.000", the digits and ".", "e+ddd], "
    zero, fall = x == 0, ~np.isfinite(x)
    if fall.any():
        raise TypeError("cannot serialize a non-finite float as JSON")
    if _FAST:
        scale, hi, hh, hl, lo, lead, expo, point, quads, keep, dots, zeros = _tables()
        a = np.where(zero, 1.0, np.abs(x))
        k = np.floor(np.log10(a)).astype(np.intp) + _K0
        a = np.ldexp(a, scale[k])
        (ah, al), p = _split(a), a * hi[k]
        r = ((ah * hh[k] - p) + ah * hl[k] + al * hh[k]) + al * hl[k] + a * lo[k]
        fl = np.floor(r)
        d, r = p.astype(np.int64) + fl.astype(np.int64), r - fl  # y = d + r, r in [0, 1)
        fall |= ~zero & ((abs(r - 0.5) < _BAND) | (d < 10**16) | (d >= 10**17 - 1))
        d += r > 0.5
        del a, ah, al, p, r, fl  # each stage frees its temporaries: a block peaks near 0.5 MB
        d[zero], k[zero] = 0, _K0
        q = [d]  # d // 10^0, d // 10^4, .., d // 10^16
        for _ in range(4):
            q.append(q[-1] // 10**4)
        c = [q[4 - i] - q[5 - i] * 10**4 for i in (1, 2, 3, 4)]  # the 4-digit groups after d's first digit
        w = [(quads[q[4]] & 0xFF000000) | quads[c[0]] << 32, quads[c[1]] | quads[c[2]] << 32, quads[c[3]]]
        t = [wi ^ z for wi, z in zip(w, zeros)]  # 3 NUL bytes, then d's 17 digits; t holds their values
        nd = (np.frexp((t[2] * 2.0**128 + t[1] * 2.0**64) + t[0])[1] - 1 >> 3) - 2  # last nonzero byte
        del q, c, t
        pp = point[k]
        nd = np.maximum(nd, pp % 18)  # the fixed form shows every integer digit
        m = np.minimum(pp, nd)
        dot, prev = np.where(nd > m, m, 18), 0
        for i in range(3):  # the digits before the point, the point, the digits after it
            head = w[i] & keep[i][m]
            tail = (w[i] & keep[i][nd]) ^ head
            out[:, 1 + i] = head | dots[i][dot] | tail << 8 | prev >> 56
            prev = tail
        out[:, 0], out[:, 4] = lead[k], expo[k]
        del k, d, w, nd, pp, m, dot, head, tail, prev
    else:
        fall[:] = True
    out[:, 0] |= np.signbit(x) * np.uint64(ord("-") << 8)
    if fall.any():
        out[fall] = 0
        out[fall, 1:4] = np.array(["%.17g" % v for v in x[fall].tolist()], "S24").view(np.uint64).reshape(-1, 3)
    out[:, 0] |= ends[:len(x), 0]
    out[:, 4] |= ends[:len(x), 1]
    b = out.view(np.uint8).ravel()
    return b[b != 0].tobytes().decode("ascii")


def _pieces(obj):
    # scalars first: they are most of a report's values, and a list of
    # them renders each one through this generator
    if isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise TypeError(f"cannot serialize the non-finite float {float(obj)} as JSON")
        yield format(float(obj), ".17g")
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: "
            yield from _pieces(v)
        yield "}"
    elif isinstance(obj, MatrixData):  # a block of rows per piece
        pairs = np.iscomplexobj(obj.array)
        rows = obj.array.view(float) if pairs else obj.array
        step = max(1, min(16, _BLOCK // max(1, rows.shape[1])))
        ends = np.tile(_ENDS[pairs], (step * rows.shape[1] // len(_ENDS[pairs]), 1))
        yield "["
        for i in range(0, len(rows), step):
            text = _block_text(rows[i:i + step].ravel(), ends)
            yield text if i + step < len(rows) else text[:-2]  # no ", " after the last value
        yield "]"
    elif isinstance(obj, (list, tuple)):  # one piece
        yield "[" + ", ".join(["".join(_pieces(v)) for v in obj]) + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    return "".join(_pieces(obj))


def write_canonical_json(path, obj) -> None:
    """Write ``canonical_json(obj)`` and a newline to ``path`` piece by piece."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_pieces(obj))
        f.write("\n")


def _walk(obj, path: str, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            sub = f"{path}.{k}" if path else str(k)
            _walk(obj[k], sub, lines)
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        for i, v in enumerate(obj):
            _walk(v, f"{path}[{i}]", lines)
    else:
        lines.append(f"{path} = {obj if isinstance(obj, str) else canonical_json(obj)}")


def render_text(obj) -> str:
    """Flat deterministic ``path = value`` rendering of a report dict."""
    lines: list[str] = []
    _walk(obj, "", lines)
    return "\n".join(lines)


def render_report(report: dict, fmt: str) -> str:
    """Render a report as ``json`` or ``text``."""
    if fmt == "json":
        return canonical_json(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")
