"""Coupling tensors of normalized polynomial systems.

A normalized system has the shape F(z) = z - sum_{k=2..d} W_k(z) with each
W_k homogeneous of degree k.  The coupling tensor stores, for every component
i and every sorted index tuple t = (j1 <= ... <= jk), the coefficient of the
monomial z_{j1}...z_{jk} in the i-th component of W_k.  Storing one entry per
sorted tuple is the canonical symmetrized form: an entry equals the sum of
all redundant order-dependent coefficients of that monomial, which is the
only combination that can influence the system.

The grading weight of a degree-k coupling is k - 1: the graded nonlinearity
W~_i = sum_k theta^(k-1) W_k,i of :meth:`CouplingTensor.graded_nonlinearity`
is the one place that rule is written, and every truncated-series
computation in :mod:`polyred.series` is graded by the total such weight.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterator

from .gaussian import Gaussian, ONE
from .poly import Polynomial, PolySystem


class NormalizationError(ValueError):
    """The system is not of the form z + higher-order terms."""


def orderings(t: tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted index tuple."""
    n = math.factorial(len(t))
    i = 0
    while i < len(t):
        j = i
        while j < len(t) and t[j] == t[i]:
            j += 1
        n //= math.factorial(j - i)
        i = j
    return n


def distinct_orderings(t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return iter(set(permutations(t)))


def tuple_of_exps(exps: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted index tuple of a monomial: (2, 0, 1) gives (0, 0, 2)."""
    out = []
    for i, e in enumerate(exps):
        out.extend([i] * e)
    return tuple(out)


def _exps_of_tuple(t: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for j in t:
        exps[j] += 1
    return tuple(exps)


class CouplingTensor:
    """Monomial coefficients of the nonlinear part of a normalized system."""

    __slots__ = ("dims", "max_degree", "entries")

    def __init__(self, dims: int, max_degree: int,
                 entries: dict[tuple[int, int, tuple[int, ...]], Gaussian] | None = None):
        if dims < 1:
            raise ValueError("a coupling tensor needs at least one variable")
        if max_degree < 2:
            raise ValueError("coupling degrees start at 2")
        self.dims = dims
        self.max_degree = max_degree
        clean: dict[tuple[int, int, tuple[int, ...]], Gaussian] = {}
        for (k, i, t), c in (entries or {}).items():
            t = tuple(t)
            if not 2 <= k <= max_degree:
                raise ValueError(f"coupling degree {k} outside 2..{max_degree}")
            if len(t) != k or tuple(sorted(t)) != t:
                raise ValueError(f"index tuple {t} must be sorted and of length {k}")
            if not 0 <= i < dims or any(not 0 <= j < dims for j in t):
                raise ValueError(f"index out of range in ({k}, {i}, {t})")
            c = Gaussian.coerce(c)
            if not c.is_zero():
                clean[(k, i, t)] = c
        self.entries = clean

    # -- conversions -------------------------------------------------------

    @staticmethod
    def from_system(F: PolySystem) -> "CouplingTensor":
        """Read couplings off a normalized square system; exact inverse of to_system."""
        if not F.is_square():
            raise NormalizationError("system must be square")
        n = F.nvars
        for i, p in enumerate(F.components):
            if not p.constant_term().is_zero():
                raise NormalizationError(f"component {i} has a nonzero constant part")
            lin = p.homogeneous_part(1)
            if lin != Polynomial.variable(i, n):
                raise NormalizationError(f"component {i} has a non-identity linear part")
        d = max(F.degree_bound, 2)
        entries: dict[tuple[int, int, tuple[int, ...]], Gaussian] = {}
        for i, p in enumerate(F.components):
            for exps, c in p.terms.items():
                k = sum(exps)
                if k <= 1:
                    continue
                entries[(k, i, tuple_of_exps(exps))] = -c
        return CouplingTensor(n, d, entries)

    def to_system(self, degree_bound: int | None = None) -> PolySystem:
        n = self.dims
        term_maps: list[dict[tuple, Gaussian]] = [dict() for _ in range(n)]
        for i in range(n):
            term_maps[i][tuple(1 if j == i else 0 for j in range(n))] = ONE
        for (k, i, t), c in self.entries.items():
            exps = _exps_of_tuple(t, n)
            term_maps[i][exps] = term_maps[i].get(exps, Gaussian(0)) - c
        comps = [Polynomial(n, tm) for tm in term_maps]
        return PolySystem(comps, nvars=n, degree_bound=degree_bound or self.max_degree)

    # -- views ---------------------------------------------------------------

    def coupling_poly(self, i: int, k: int) -> Polynomial:
        """W_k's i-th component as a polynomial (homogeneous of degree k)."""
        terms = {
            _exps_of_tuple(t, self.dims): c
            for (kk, ii, t), c in self.entries.items()
            if kk == k and ii == i
        }
        return Polynomial(self.dims, terms)

    def graded_nonlinearity(self) -> list[Polynomial]:
        """W~_i = sum_k theta^(k-1) W_k,i in dims + 1 variables, theta last.

        The grading indeterminate theta weights a degree-k coupling by k - 1,
        so the nonlinearity evaluated on a graded series keeps the grading.
        """
        n = self.dims
        terms: list[dict[tuple, Gaussian]] = [dict() for _ in range(n)]
        for (k, i, t), c in self.entries.items():
            terms[i][_exps_of_tuple(t, n) + (k - 1,)] = c
        return [Polynomial(n + 1, tm) for tm in terms]

    def degrees(self) -> list[int]:
        return sorted({k for (k, _, _) in self.entries})

    def symmetric_value(self, k: int, i: int, t: tuple[int, ...]) -> Gaussian:
        """Per-ordering tensor value: stored monomial coefficient / #orderings."""
        c = self.entries.get((k, i, tuple(t)))
        if c is None:
            return Gaussian(0)
        return c / orderings(tuple(t))

    def has_quadratic(self) -> bool:
        return any(k == 2 for (k, _, _) in self.entries)

    def __eq__(self, other):
        if not isinstance(other, CouplingTensor):
            return NotImplemented
        return (self.dims, self.max_degree, self.entries) == \
            (other.dims, other.max_degree, other.entries)

    def __repr__(self):
        return f"<CouplingTensor dims={self.dims} d={self.max_degree} nnz={len(self.entries)}>"
