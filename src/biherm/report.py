"""Deterministic report rendering.

Reports are plain dicts rendered either as canonical JSON (sorted keys,
floats at 17 significant digits) or as a flat sorted ``path = value``
text listing.  Identical inputs produce byte-identical output, which the
golden-file tests rely on.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

__all__ = ["canonical_json", "render_text", "render_report"]


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        # Lists of floats and of [re, im] float pairs (matrix files, spectra)
        # are formatted whole by one %-template; "%.17g" % x is format(x, ".17g").
        types = set(map(type, obj))
        if types == {float}:
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        if types == {list} and set(map(len, obj)) == {2}:
            parts = tuple(chain.from_iterable(obj))
            if set(map(type, parts)) == {float}:
                return "[" + ", ".join(["[%.17g, %.17g]"] * len(obj)) % parts + "]"
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in items)
        return "{" + body + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    return _render(obj)


def _leaf(obj) -> str:
    if isinstance(obj, str):
        return obj
    return _render(obj)


def _walk(obj, path: str, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            sub = f"{path}.{k}" if path else str(k)
            _walk(obj[k], sub, lines)
    elif isinstance(obj, np.ndarray):
        _walk(obj.tolist(), path, lines)
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj
    ):
        for i, v in enumerate(obj):
            _walk(v, f"{path}[{i}]", lines)
    else:
        lines.append(f"{path} = {_leaf(obj)}")


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
