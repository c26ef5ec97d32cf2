"""Canonical JSON serialization of polynomials, systems and reports.

System files: {"version": 1, "nvars": n, "degree_bound": d, "components":
[polynomial...], "provenance": {...}?}.  A polynomial is {"nvars": n,
"terms": [{"exp": [e1..en], "re": "p/q", "im": "p/q"}]} with terms in
descending graded-lex order and rationals rendered by Fraction's string form
("3", "-1/2"); input rationals must match [+-]?digits(/digits)?.  Emission
is canonical, so parse followed by emit reproduces a canonical file byte for
byte.
"""

from __future__ import annotations

import json
import re
from math import lcm

from .gaussian import Gaussian
from .poly import Polynomial, PolySystem

SCHEMA_VERSION = 1
# Only this form, so that int() reads each part; no exponents such as "1e10000000".
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


class SchemaError(ValueError):
    """Input file violates the schema; the message names the offending field."""


def _is_count(x) -> bool:
    """A non-negative JSON integer; ``type`` rather than ``isinstance``, so booleans fail."""
    return type(x) is int and x >= 0


def _rational_from_string(s, path: str) -> tuple[int, int]:
    """(p, q) with q > 0 for a rational string p or p/q; p/q need not be reduced."""
    if not isinstance(s, str):
        raise SchemaError(f"{path}: expected a rational string, got {type(s).__name__}")
    if not _RATIONAL.fullmatch(s):
        raise SchemaError(f"{path}: expected a rational of the form p or p/q, got {s[:40]!r}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"{path}: cannot parse rational {s!r}: {exc}") from None
    if not q:
        raise SchemaError(f"{path}: cannot parse rational {s!r}: Fraction({p}, 0)")
    return p, q


def polynomial_to_dict(p: Polynomial) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [
            {"exp": list(exps), "re": str(c.re), "im": str(c.im)}
            for exps, c in p.sorted_terms()
        ],
    }


def polynomial_from_dict(obj, path: str = "polynomial") -> Polynomial:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if not _is_count(obj.get("nvars")):
        raise SchemaError(f"{path}.nvars: expected a non-negative integer")
    nvars = obj["nvars"]
    terms_obj = obj.get("terms")
    if not isinstance(terms_obj, list):
        raise SchemaError(f"{path}.terms: expected a list")
    terms: dict[tuple, Gaussian] = {}
    for idx, t in enumerate(terms_obj):
        tpath = f"{path}.terms[{idx}]"
        if not isinstance(t, dict):
            raise SchemaError(f"{tpath}: expected an object")
        exp = t.get("exp")
        if (not isinstance(exp, list) or len(exp) != nvars
                or not all(_is_count(e) for e in exp)):
            raise SchemaError(
                f"{tpath}.exp: expected {nvars} non-negative integers")
        p1, q1 = _rational_from_string(t.get("re", "0"), f"{tpath}.re")
        p2, q2 = _rational_from_string(t.get("im", "0"), f"{tpath}.im")
        d = lcm(q1, q2)
        c = Gaussian(p1 * (d // q1), p2 * (d // q2), d)
        key = tuple(exp)
        if key in terms:
            raise SchemaError(f"{tpath}.exp: duplicate exponent vector {exp}")
        terms[key] = c
    return Polynomial(nvars, terms)


def system_to_dict(F: PolySystem, provenance: dict | None = None) -> dict:
    out = {
        "version": SCHEMA_VERSION,
        "nvars": F.nvars,
        "degree_bound": F.degree_bound,
        "components": [polynomial_to_dict(p) for p in F.components],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def system_from_dict(obj) -> tuple[PolySystem, dict | None]:
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected an object")
    if not _is_count(obj.get("version")) or obj["version"] != SCHEMA_VERSION:
        raise SchemaError(f"version: expected {SCHEMA_VERSION}, got {obj.get('version')!r}")
    nvars = obj.get("nvars")
    if not _is_count(nvars):
        raise SchemaError("nvars: expected a non-negative integer")
    comps_obj = obj.get("components")
    if not isinstance(comps_obj, list):
        raise SchemaError("components: expected a list")
    comps = []
    for i, c in enumerate(comps_obj):
        p = polynomial_from_dict(c, f"components[{i}]")
        if p.nvars != nvars:
            raise SchemaError(f"components[{i}].nvars: {p.nvars} != system nvars {nvars}")
        comps.append(p)
    bound = obj.get("degree_bound")
    if bound is not None and not _is_count(bound):
        raise SchemaError("degree_bound: expected a non-negative integer")
    try:
        F = PolySystem(comps, nvars=nvars, degree_bound=bound)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    prov = obj.get("provenance")
    if prov is not None and not isinstance(prov, dict):
        raise SchemaError("provenance: expected an object")
    return F, prov


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def read_system(path: str) -> tuple[PolySystem, dict | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None
    return system_from_dict(obj)


def write_system(path: str, F: PolySystem, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(system_to_dict(F, provenance)))
