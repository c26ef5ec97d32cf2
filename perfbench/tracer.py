"""Per-layer tracing from outside the library.

:class:`Tracer` wraps public functions of ``polyred``'s modules.  A span
wrapper records (name, start, end, parent) in flat in-memory arrays; a count
wrapper only bumps a counter.  Every binding of a wrapped function is
patched, in every ``polyred`` module and class, so a call made through any
import path is seen; :meth:`Tracer.install` fails if one is left unwrapped.
Spans are recorded only while ``active`` is set, so checks and digests made
between timed calls stay out of the numbers.

A span's self time is its duration minus the durations of its direct
children.  Calls on one thread nest, so direct children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

SPAN, COUNT = "span", "count"


def _term_pairs(stats, args, result):
    stats["poly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _max_exp(stats, args, result):
    top = max((max(e, default=0) for e in args[0].terms), default=0)
    stats["poly.compose.max_exp"] = max(stats["poly.compose.max_exp"], top)


def _large_det(stats, args, result):
    stats["jacobian.det.large_calls"] += args[0].nrows >= 4


def _decided(stats, args, result):
    stats["jacobian.certify_polynomial_inverse.decided"] += result.verdict != "undetermined"


def _block_rounds(stats, args, result):
    """Fixed-point rounds of a returned block inversion: the degree cap, or 0 if affine."""
    comps, nvars, start = args[0], args[1], args[2]
    cap = args[3] if len(args) > 3 else None
    stats["elimination.invert_trailing_block.certified"] += bool(result.certified)
    block_deg = max((p.block_degree(start, nvars) for p in comps), default=-1)
    if block_deg > 1:
        nb = nvars - start
        stats["elimination.invert_trailing_block.rounds"] += \
            cap if cap is not None else block_deg ** max(nb - 1, 0)


def _bytes(stats, args, result):
    stats["io.dumps_canonical.bytes"] += len(result.encode())


# (module, attribute path, metric prefix, kind, observer of (stats, args, result))
TARGETS = [
    ("polyred.gaussian", "Gaussian.__init__", "gaussian.new", COUNT, None),
    ("polyred.gaussian", "Gaussian.__mul__", "gaussian.mul", COUNT, None),
    ("polyred.gaussian", "Gaussian.__add__", "gaussian.add", COUNT, None),
    ("polyred.gaussian", "Gaussian.inverse", "gaussian.inverse", COUNT, None),
    ("polyred.poly", "Polynomial.mul", "poly.mul", SPAN, _term_pairs),
    ("polyred.poly", "Polynomial.__add__", "poly.add", SPAN, None),
    ("polyred.poly", "Polynomial.compose", "poly.compose", SPAN, _max_exp),
    ("polyred.poly", "Polynomial.partial", "poly.partial", SPAN, None),
    ("polyred.poly", "exact_div", "poly.exact_div", SPAN, None),
    ("polyred.jacobian", "PolyMatrix.det", "jacobian.det", SPAN, _large_det),
    ("polyred.jacobian", "is_jlin", "jacobian.is_jlin", SPAN, None),
    ("polyred.jacobian", "certify_polynomial_inverse",
     "jacobian.certify_polynomial_inverse", SPAN, _decided),
    ("polyred.elimination", "invert_trailing_block",
     "elimination.invert_trailing_block", SPAN, _block_rounds),
    ("polyred.elimination", "build_H", "elimination.build_H", SPAN, None),
    ("polyred.elimination", "schur_identity_check", "elimination.schur_identity_check",
     SPAN, None),
    ("polyred.elimination", "is_j_partial", "elimination.is_j_partial", SPAN, None),
    ("polyred.elimination", "is_jlin_partial", "elimination.is_jlin_partial", SPAN, None),
    ("polyred.series", "formal_inverse_fixed_point", "series.formal_inverse_fixed_point",
     SPAN, None),
    ("polyred.series", "compose_poly", "series.compose_poly", SPAN, None),
    ("polyred.series", "GradedPoly.__mul__", "series.graded_mul", SPAN, None),
    ("polyred.series", "inversion_defect", "series.inversion_defect", SPAN, None),
    ("polyred.series", "tree_oracle_inverse", "series.tree_oracle_inverse", SPAN, None),
    ("polyred.series", "z_det_identity_check", "series.z_det_identity_check", SPAN, None),
    ("polyred.reduction", "phi_algebraic", "reduction.phi_algebraic", SPAN, None),
    ("polyred.reduction", "phi_qft_system", "reduction.phi_qft_system", SPAN, None),
    ("polyred.io", "read_system", "io.read_system", SPAN, None),
    ("polyred.io", "dumps_canonical", "io.dumps_canonical", SPAN, _bytes),
    ("polyred.cli", "main", "cli.main", SPAN, None),
]

# Extra per-layer values: (metric, unit, derived from) -- a ratio is stat / calls.
EXTRA = [
    ("poly.mul.term_pairs", "count", None),
    ("poly.compose.max_exp", "count", None),
    ("jacobian.det.large_calls", "count", None),
    ("jacobian.certify_polynomial_inverse.decided_ratio", "ratio",
     "jacobian.certify_polynomial_inverse.decided"),
    ("elimination.invert_trailing_block.rounds", "count", None),
    ("elimination.invert_trailing_block.certified_ratio", "ratio",
     "elimination.invert_trailing_block.certified"),
    ("io.dumps_canonical.bytes", "B", None),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for _, _, prefix, kind, _ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        if kind == SPAN:
            units[f"{prefix}.self_s"] = "s"
    for name, unit, _ in EXTRA:
        units[name] = unit
    units["trace.wall_ratio"] = "ratio"
    return units


class UnwrappedBinding(RuntimeError):
    """A polyred module or class still refers to an original, unwrapped function."""


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, observe=None):
        nid = self._name(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self.stats, args, result)
            return result
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every binding; raise if any binding stays unwrapped."""
        originals = []
        for modname, path, prefix, kind, observe in targets:
            fn = _lookup(modname, path)
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self.span(prefix, fn, observe) if kind == SPAN else self.count(prefix, fn)
            originals.append(fn)
            for owner, attr in _bindings(fn):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        left = [where for fn in originals for where in _references(fn)]
        if left:
            raise UnwrappedBinding(f"unwrapped bindings remain: {left}")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(ids, minlength=len(self.names))
        self_ns = np.bincount(ids, weights=dur - children, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_ns[i]) / 1e9)
                for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of :func:`metric_units` but ``trace.wall_ratio``."""
        spans = self.self_times()
        out: dict[str, float] = {}
        for _, _, prefix, kind, _ in TARGETS:
            if kind == SPAN:
                out[f"{prefix}.calls"], out[f"{prefix}.self_s"] = spans.get(prefix, (0, 0.0))
            else:
                out[f"{prefix}.calls"] = self.counts[prefix]
        for name, _, base in EXTRA:
            if base is None:
                out[name] = self.stats[name]
            else:
                n = out[name.rsplit(".", 1)[0] + ".calls"]
                out[name] = self.stats[base] / n if n else 0.0
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int64),
            start_ns=np.frombuffer(self.start, np.int64), end_ns=np.frombuffer(self.end, np.int64))


def _lookup(modname: str, path: str):
    obj = sys.modules.get(modname)
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part)
    return obj


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module or class, attribute) in polyred whose value is ``fn``."""
    out = []
    for modname, module in list(sys.modules.items()):
        if modname != "polyred" and not modname.startswith("polyred."):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                out.append((module, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                out.extend((value, a) for a, v in vars(value).items() if v is fn)
    return out


def _references(fn) -> list[str]:
    """Where polyred still refers to ``fn``: a deeper scan than :func:`_bindings`.

    It also looks inside module-level containers, static and class methods and
    partials, which :meth:`Tracer.install` cannot patch.
    """
    def refers(value) -> bool:
        if value is fn or getattr(value, "__func__", None) is fn or \
                getattr(value, "func", None) is fn:
            return True
        if isinstance(value, dict):
            return any(v is fn for v in value.values())
        return isinstance(value, (list, tuple, set, frozenset)) and any(v is fn for v in value)

    out = []
    for modname, module in list(sys.modules.items()):
        if modname != "polyred" and not modname.startswith("polyred."):
            continue
        for attr, value in vars(module).items():
            if refers(value):
                out.append(f"{modname}.{attr}")
            if isinstance(value, type):
                out.extend(f"{modname}.{attr}.{a}" for a, v in vars(value).items() if refers(v))
    return out

