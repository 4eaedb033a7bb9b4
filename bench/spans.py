"""Spans around calls into biherm's layers, installed from outside.

:class:`Tracer` wraps every public function of each layer module (and the
public methods and ``__post_init__`` of its public classes), rebinding
each wrapped name in every biherm module that imported it, so calls made
inside the package are seen too.  CLI commands are wrapped through their
click callbacks, and the click group's ``main`` as ``cli.main``.  LAPACK
calls are counted, not timed, at the numpy/scipy boundary, and only while
a biherm span is open, so the benchmark's own linear algebra is not
counted.  ``uninstall`` restores every binding; untraced runs never call
``install``.
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("forms", "triples", "connecting", "spectral", "decomposition", "matrixio", "report", "cli")

LAPACK = {
    "eig": ("eig", "eigh", "eigvals", "eigvalsh"),
    "cholesky": ("cholesky",),
    "solve": ("solve", "inv"),
    "svd": ("svd",),
    "qr": ("qr",),
}

_LOADS = ("matrixio.load_matrix", "matrixio.load_triple")
_SAVES = ("matrixio.save_matrix", "matrixio.save_triple")
_COMMUTANT = "spectral.commutant_dimension"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0  # inclusive of child spans
    self_s: float = 0.0  # minus the time covered by child spans
    errors: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.lapack: Counter[str] = Counter()
        self.bytes_read = 0
        self.bytes_written = 0
        self.commutant_map_bytes = 0
        self._stack: list[list[float]] = []  # child time of each open span
        self._seen_errors: list[BaseException] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _attribute_error(self, name: str, exc: BaseException) -> None:
        if isinstance(exc, SystemExit) and exc.code in (0, None):
            return
        if any(e is exc for e in self._seen_errors):
            return  # already charged to the span it was raised in
        self._seen_errors.append(exc)
        self.stats[name].errors += 1

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        tracer = self

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._attribute_error(name, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child[0]
            if name in _LOADS:
                tracer.bytes_read += os.path.getsize(args[0])
            elif name in _SAVES:
                tracer.bytes_written += os.path.getsize(args[0])
            elif name == _COMMUTANT:
                tracer.commutant_map_bytes += 3 * 16 * args[0].dim ** 4
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, category: str, fn):
        stack, lapack = self._stack, self.lapack

        def counted(*args, **kwargs):
            if stack:
                lapack[category] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        package = importlib.import_module("biherm")
        modules = [package] + [importlib.import_module(f"biherm.{m}") for m in LAYERS]
        for layer in LAYERS:
            if layer == "cli":
                continue
            mod = sys.modules[f"biherm.{layer}"]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{layer}.{public}", obj)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, attr, wrapped)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if isinstance(val, types.FunctionType) and (
                            not attr.startswith("_") or attr == "__post_init__"
                        ):
                            self._set(obj, attr, self._wrap(f"{layer}.{public}.{attr}", val))
        cli = sys.modules["biherm.cli"]
        for command in cli.main.commands.values():
            self._set(command, "callback", self._wrap(f"cli.{command.name}", command.callback))
        self._set(cli.main, "main", self._wrap("cli.main", cli.main.main))
        for lib in (numpy.linalg, scipy.linalg):
            for category, names in LAPACK.items():
                for fname in names:
                    self._set(lib, fname, self._count(category, getattr(lib, fname)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> dict[str, SpanStats]:
        out = {layer: SpanStats() for layer in LAYERS}
        for name, st in self.stats.items():
            agg = out[name.split(".", 1)[0]]
            agg.calls += st.calls
            agg.self_s += st.self_s
            agg.errors += st.errors
        return out

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


_MISSING = object()
