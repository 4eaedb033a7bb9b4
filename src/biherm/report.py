"""Deterministic report rendering.

Reports are plain dicts rendered either as canonical JSON (sorted keys,
floats at 17 significant digits) or as a flat sorted ``path = value``
text listing.  Identical inputs produce byte-identical output, which the
golden-file tests rely on.  One generator renders every JSON value as
string pieces, a matrix file's ``data`` one row per piece, which
:func:`write_canonical_json` streams to a file.  A value is a dict, a list
or tuple, a :class:`MatrixData`, a string, or a bool, int or float
(Python or numpy); anything else, ``None``, complex scalars and ndarrays
included, raises TypeError.  A matrix reaches a report only as
MatrixData, whose row template alone writes ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["MatrixData", "canonical_json", "write_canonical_json", "render_text", "render_report"]


@dataclass(frozen=True, eq=False)
class MatrixData:
    """A matrix file's ``data``: its row-major floats, or ``[re, im]`` pairs, kept as the 2-D array."""

    array: np.ndarray


def _pieces(obj):
    # scalars first: they are most of a report's values, and a list of
    # them renders each one through this generator
    if isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format(float(obj), ".17g")
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: "
            yield from _pieces(v)
        yield "}"
    elif isinstance(obj, MatrixData):  # one matrix row per piece
        pairs = np.iscomplexobj(obj.array)
        row = ", ".join(["[%.17g, %.17g]" if pairs else "%.17g"] * obj.array.shape[1])
        yield "["
        for i, floats in enumerate(obj.array.view(float) if pairs else obj.array):
            yield (", " if i else "") + row % tuple(floats.tolist())
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
