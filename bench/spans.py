"""Span tracer that wraps package functions from outside the package.

Each traced name ``module.function`` is looked up in ``impnet.module``; the
function object found there is replaced by a recording wrapper in every
loaded ``impnet`` module namespace that holds it (for example
``impnet.direct.assemble_laplacian`` as well as
``impnet.laplacian.assemble_laplacian``), so calls between modules are seen.
A name the package no longer has is reported as absent; nothing in the
package is edited.

Spans are (name, start, end, parent span index, op id) tuples kept in
memory.  Only calls made while an op is active are recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import numbers
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "impnet"

TRACED = (
    "cli.main",
    "network.parse_netlist",
    "laplacian.assemble_laplacian",
    "laplacian.admittance_scale",
    "laplacian.smallest_nontrivial_sigma",
    "takagi.takagi_decompose",
    "takagi.classify_zero_modes",
    "impedance.two_point_impedance",
    "impedance.impedance_matrix",
    "direct.solve_direct",
    "resonance.sweep_resonances",
)


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans: list[tuple | None] = []
        self.op: int | None = None
        self.absent: list[str] = []
        # takagi_decompose: (matrix order, residual) of every call
        self.takagi_calls: list[tuple[int, float]] = []
        # solve_direct: calls whose result was not a number
        self.singular_count = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ── install / uninstall ──────────────────────────────────────────────

    def install(self) -> None:
        self.absent = []
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in self.names:
            mod_name, _, attr = name.rpartition(".")
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(home, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules + [home]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, op)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # ── analysis ─────────────────────────────────────────────────────────

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time (span duration minus direct children) per
        traced name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return dict(calls), dict(self_s)

    def calls_in_ops(self, name: str, ops) -> int:
        ops = set(ops)
        return sum(1 for s in self.spans if s[0] == name and s[4] in ops)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_takagi(tracer: Tracer, args, result) -> None:
    try:
        order = len(args[0])
    except (IndexError, TypeError):
        order = 0
    residual = getattr(result, "residual", math.nan)
    tracer.takagi_calls.append((order, float(residual)))


def _observe_direct(tracer: Tracer, args, result) -> None:
    if not isinstance(result, numbers.Number):
        tracer.singular_count += 1


_OBSERVERS = {
    "takagi.takagi_decompose": _observe_takagi,
    "direct.solve_direct": _observe_direct,
}
