"""Independent exact arithmetic for building inputs and checking answers.

The benchmark never asks the code under test for a known answer.  Inputs are
generated, and answers derived, with this small module: sparse polynomials
over the Gaussian rationals as ``{exponent tuple: (re, im)}`` dicts with
``Fraction`` parts.  It shares no code with ``polyred``.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def scalar(re_part, im_part=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re_part), Fraction(im_part))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_neg(a):
    return (-a[0], -a[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


_GAUSSIAN = re.compile(r"^(?P<re>-?\d+(?:/\d+)?)?(?:(?P<sign>[+-]?)(?P<im>\d+(?:/\d+)?\*)?i)?$")


def parse_gaussian(text: str) -> tuple[Fraction, Fraction]:
    """Read the printed form of a Gaussian rational: ``3``, ``-1/2+2*i``, ``-i``."""
    m = _GAUSSIAN.match(text)
    if not m or not text:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    re_part = Fraction(m["re"]) if m["re"] else Fraction(0)
    if not text.endswith("i"):
        return (re_part, Fraction(0))
    im_part = Fraction(m["im"][:-1]) if m["im"] else Fraction(1)
    return (re_part, -im_part if m["sign"] == "-" else im_part)


class Poly:
    """Sparse polynomial in ``nvars`` variables; zero coefficients are never stored."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != ZERO}

    @staticmethod
    def var(i: int, nvars: int) -> "Poly":
        return Poly(nvars, {tuple(int(j == i) for j in range(nvars)): ONE})

    @staticmethod
    def const(c, nvars: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def monomial(exps, c) -> "Poly":
        return Poly(len(exps), {tuple(exps): c})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = c_add(out.get(e, ZERO), c)
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: c_neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, tuple):
            return Poly(self.nvars, {e: c_mul(c, other) for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = c_add(out.get(e, ZERO), c_mul(c1, c2))
        return Poly(self.nvars, out)

    def __pow__(self, k: int) -> "Poly":
        out, base = Poly.const(ONE, self.nvars), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.nvars, self.terms) == (other.nvars, other.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def constant(self):
        return self.terms.get((0,) * self.nvars, ZERO)

    def partial(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = c_mul(c, scalar(e[i]))
        return Poly(self.nvars, out)

    def compose(self, subs: list["Poly"]) -> "Poly":
        """Substitute ``subs[i]`` for variable i (powers by square-and-multiply)."""
        nv = subs[0].nvars
        out = Poly(nv)
        for e, c in self.terms.items():
            term = Poly.const(c, nv)
            for s, k in zip(subs, e):
                if k:
                    term = term * s ** k
            out = out + term
        return out


def identity(n: int) -> list[Poly]:
    return [Poly.var(i, n) for i in range(n)]


def compose_maps(outer: list[Poly], inner: list[Poly]) -> list[Poly]:
    return [p.compose(inner) for p in outer]


def det(rows: list[list[Poly]]) -> Poly:
    """Laplace expansion; fine for the matrices of size <= 4 used here."""
    if len(rows) == 1:
        return rows[0][0]
    acc = Poly(rows[0][0].nvars)
    for j, head in enumerate(rows[0]):
        if head.terms:
            minor = det([r[:j] + r[j + 1:] for r in rows[1:]])
            acc = acc + head * minor if j % 2 == 0 else acc - head * minor
    return acc


def jacobian_det(F: list[Poly]) -> Poly:
    return det([[F[j].partial(i) for j in range(len(F))] for i in range(len(F))])


# -- the polyred file schema, written and read without the library ------------


def poly_to_json(p: Poly) -> dict:
    return {"nvars": p.nvars,
            "terms": [{"exp": list(e), "re": str(c[0]), "im": str(c[1])}
                      for e, c in sorted(p.terms.items())]}


def poly_from_json(obj: dict) -> Poly:
    return Poly(obj["nvars"], {tuple(t["exp"]): (Fraction(t["re"]), Fraction(t["im"]))
                               for t in obj["terms"]})


def system_to_json(F: list[Poly], nvars: int) -> dict:
    return {"version": 1, "nvars": nvars,
            "degree_bound": max(max((p.degree() for p in F), default=0), 0),
            "components": [poly_to_json(p) for p in F]}


def system_from_json(obj: dict) -> list[Poly]:
    return [poly_from_json(c) for c in obj["components"]]
