"""Sparse multivariate polynomials over the Gaussian rationals.

A monomial is an exponent tuple of fixed length ``nvars``; a polynomial is a
map from monomials to nonzero coefficients (canonical sparse form, zero
coefficients are never stored).  The global monomial order is graded
lexicographic: total degree first, ties broken lexicographically on the
exponent tuple.  Printing and serialization list terms in descending
graded-lex order, which makes output deterministic.

Every product of two polynomials runs through one kernel,
:func:`_add_product`, reached by :meth:`Polynomial.mul` and
:func:`compose_many`.  It works on the coefficients' raw int triples
(a, b, d): each product and each running sum stays an unnormalised triple,
each output term is normalised to a canonical ``Gaussian`` once, and a sum
that cancels to zero is dropped then, so no zero coefficient is ever stored.

A matrix is a list of sparse rows, {column: nonzero entry} maps.  Every
Jacobian matrix, or a square block of one, is built by :func:`block_jacobian`
in one pass over the terms.  Every determinant and every linear solve goes
through one exact elimination, :class:`Elimination`: it pivots on the
entries that are nonzero constants (unit pivots), records its row
operations, and leaves a pivot-free remainder.  :func:`det` multiplies the
pivots by the remainder's division-free minor expansion, and
:meth:`Elimination.solve` replays the row operations on a right-hand side,
takes Cramer's rule on the remainder alone and back-substitutes.  The block
Jacobian of every degree-reduction image is the identity, so its remainder
is empty.

All values are treated as immutable after construction; operations are pure
functions and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import add
from typing import Iterable, Mapping, Sequence

from .gaussian import Gaussian, ZERO, ONE

# Scalars that a polynomial accepts as an operand: they coerce to a constant.
_SCALARS = (int, Fraction, Gaussian)


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Gaussian] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        clean: dict[tuple, Gaussian] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong length, expected {nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = Gaussian.coerce(c)
                if not c.is_zero():
                    clean[exps] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _of(nvars: int, terms: dict[tuple, Gaussian]) -> "Polynomial":
        """Wrap ``terms``, already canonical (no zero coefficient), without checks."""
        p = Polynomial.__new__(Polynomial)
        p.nvars = nvars
        p.terms = terms
        return p

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(c, nvars: int) -> "Polynomial":
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        c = Gaussian.coerce(c)
        return Polynomial._of(nvars, {} if c.is_zero() else {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "Polynomial":
        return Polynomial.constant(ONE, nvars)

    @staticmethod
    def variable(i: int, nvars: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        return Polynomial._of(nvars, {(0,) * i + (1,) + (0,) * (nvars - i - 1): ONE})

    @staticmethod
    def monomial(exps: Sequence[int], c, nvars: int | None = None) -> "Polynomial":
        exps = tuple(exps)
        return Polynomial(len(exps) if nvars is None else nvars, {exps: Gaussian.coerce(c)})

    # -- predicates / accessors -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # zero, or one term whose exponents are all zero
        return len(self.terms) <= 1 and not any(next(iter(self.terms), ()))

    def constant_term(self) -> Gaussian:
        return self.terms.get((0,) * self.nvars, ZERO)

    def coefficient(self, exps: Sequence[int]) -> Gaussian:
        return self.terms.get(tuple(exps), ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def block_degree(self, start: int, end: int) -> int:
        if not self.terms:
            return -1
        return max(sum(e[start:end]) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple, Gaussian]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _check_same_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def _operand(self, other) -> "Polynomial | None":
        """``other`` as a polynomial in this ring; None if it is neither a
        polynomial nor a scalar."""
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            return other
        if isinstance(other, _SCALARS):
            return Polynomial.constant(other, self.nvars)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, ZERO) + c
            if s.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = s
        return Polynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def scale(self, c) -> "Polynomial":
        c = Gaussian.coerce(c)
        if c.is_zero():
            return Polynomial.zero(self.nvars)
        return Polynomial._of(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if isinstance(other, Polynomial):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: "Polynomial", max_degree: int | None = None,
            start: int = 0) -> "Polynomial":
        """Exact product; with ``max_degree`` set, drops the terms whose degree in
        the variables from index ``start`` on exceeds it.

        One pass of :func:`_add_product`: every term pair's product and every
        running sum is an unnormalised int triple, each output term becomes a
        canonical ``Gaussian`` once, and sums that cancel to zero are dropped.
        """
        self._check_same_ring(other)
        return Polynomial._of(self.nvars, _canonical(
            _add_product({}, self.terms, other.terms, max_degree, start)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one(self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus-style operations -----------------------------------------

    def partial(self, var_index: int) -> "Polynomial":
        """Exact formal derivative with respect to one variable."""
        if not 0 <= var_index < self.nvars:
            raise IndexError(f"variable index {var_index} out of range for {self.nvars} variables")
        out: dict[tuple, Gaussian] = {}
        for exps, c in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            new = list(exps)
            new[var_index] = e - 1
            out[tuple(new)] = c * e
        return Polynomial(self.nvars, out)

    def homogeneous_part(self, c: int, start: int = 0) -> "Polynomial":
        """Sum of the terms of degree exactly ``c`` in the variables from index ``start`` on."""
        if c < 0:
            raise ValueError("degree must be non-negative")
        return Polynomial._of(self.nvars,
                              {e: v for e, v in self.terms.items() if sum(e[start:]) == c})

    def compose(self, subs: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``subs[i]`` for variable i; see :func:`compose_many`."""
        return compose_many([self], subs)[0]

    def scale_vars(self, factors: Sequence) -> "Polynomial":
        """p(f0*z0, f1*z1, ...) for scalar factors."""
        factors = [Gaussian.coerce(f) for f in factors]
        out: dict[tuple, Gaussian] = {}
        for exps, c in self.terms.items():
            v = c
            for f, e in zip(factors, exps):
                if e:
                    v = v * (f ** e)
            if not v.is_zero():
                out[exps] = out.get(exps, ZERO) + v
        return Polynomial(self.nvars, out)

    # -- ring embedding / restriction ----------------------------------------

    def lift(self, new_nvars: int, offset: int = 0) -> "Polynomial":
        """Embed into a larger ring; old variable i becomes variable offset+i."""
        if offset < 0 or offset + self.nvars > new_nvars:
            raise ValueError("lift target does not contain the source ring")
        pad_l = (0,) * offset
        pad_r = (0,) * (new_nvars - offset - self.nvars)
        return Polynomial(new_nvars, {pad_l + e + pad_r: c for e, c in self.terms.items()})

    def restrict(self, n_keep: int) -> "Polynomial":
        """Drop trailing variables; they must not occur in any term."""
        for e in self.terms:
            if any(e[n_keep:]):
                raise ValueError("polynomial uses a variable being dropped")
        return Polynomial(n_keep, {e[:n_keep]: c for e, c in self.terms.items()})

    # -- rendering -------------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"z{i + 1}" for i in range(self.nvars)]
        chunks = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                chunks.append(str(c))
            elif c == ONE:
                chunks.append(mono)
            elif c == -ONE:
                chunks.append(f"-{mono}")
            else:
                ctxt = str(c)
                if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                    ctxt = f"({ctxt})"
                chunks.append(f"{ctxt}*{mono}")
        out = chunks[0]
        for ch in chunks[1:]:
            out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return out

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"<Polynomial {self.to_str()}>"


def _add_product(acc: dict, lhs: Mapping[tuple, Gaussian], rhs: Mapping[tuple, Gaussian],
                 max_degree: int | None, start: int) -> dict:
    """Add the product lhs * rhs of two term maps into ``acc``; return ``acc``.

    This is the library's one product kernel.  ``acc`` maps a monomial to an
    unnormalised int triple (a, b, d) standing for (a + b*i)/d with d > 0.
    Each coefficient's triple is read once per call, each term pair's product
    is formed on ints, and a sum over equal denominators adds numerators; over
    unequal ones it is taken at their lcm.  :func:`_canonical` turns ``acc``
    into canonical coefficients.  With ``max_degree`` set, term pairs whose
    degree in the variables from index ``start`` on exceeds it are skipped.
    """
    cut = max_degree is not None
    right = [(e2, c._a, c._b, c._d, sum(e2[start:]) if cut else 0)
             for e2, c in rhs.items()]
    get = acc.get
    for e1, c1 in lhs.items():
        a1, b1, d1 = c1._a, c1._b, c1._d
        room = max_degree - sum(e1[start:]) if cut else 0
        for e2, a2, b2, d2, degree in right:
            if degree > room:
                continue
            e = tuple(map(add, e1, e2))
            if not b1:
                a, b = a1 * a2, a1 * b2
            elif not b2:
                a, b = a1 * a2, b1 * a2
            else:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            d = d1 * d2
            s = get(e)
            if s is None:
                acc[e] = (a, b, d)
                continue
            sa, sb, sd = s
            if sd == d:
                acc[e] = (sa + a, sb + b, d)
            else:
                g = gcd(sd, d)
                m, n = d // g, sd // g
                acc[e] = (sa * m + a * n, sb * m + b * n, sd * m)
    return acc


def _canonical(acc: dict) -> dict[tuple, Gaussian]:
    """The canonical coefficients of an :func:`_add_product` accumulator, zeros dropped."""
    return {e: Gaussian(a, b, d) for e, (a, b, d) in acc.items() if a or b}


def compose_many(polys: Sequence[Polynomial], subs: Sequence[Polynomial],
                 max_degree: int | None = None, start: int = 0) -> list[Polynomial]:
    """Substitute ``subs[i]`` for variable i in each of ``polys``.  All subs share one ring.

    This is the library's one substitution routine: each power subs[i]**e is
    built once for the whole batch.  With ``max_degree`` set, every product is
    cut as in :meth:`Polynomial.mul`, so each result keeps exactly the terms of
    degree <= max_degree in the variables from index ``start`` on; a constant
    term involves no product and is always kept.  A term c * z^e is the chain
    of products P1 * {0: c} * P2 * ... * Pk over its powers Pj, with the
    one-term map of c on the right, so that it is the short operand whose
    triples the kernel reads per call.  The last product of each chain is
    added straight into the result's accumulator, so each result is summed
    in place and normalised once.
    """
    for p in polys:
        if p.nvars != len(subs):
            raise ValueError(f"expected {p.nvars} substitutions, got {len(subs)}")
    if not subs:
        return [Polynomial(0, dict(p.terms)) for p in polys]
    nv = subs[0].nvars
    for s in subs:
        if s.nvars != nv:
            raise ValueError("substitution polynomials live in different rings")
    # pow_cache[i][e - 1] = subs[i]**e, grown one factor at a time (no recursion,
    # so exponents in the thousands are fine).
    pow_cache: list[list[Polynomial]] = [[s] for s in subs]

    def power(i: int, e: int) -> Polynomial:
        cache = pow_cache[i]
        while len(cache) < e:
            cache.append(cache[-1].mul(subs[i], max_degree, start))
        return cache[e - 1]

    origin = (0,) * nv
    unit = {origin: ONE}
    slots = range(len(subs))
    out = []
    for p in polys:
        acc: dict = {}
        for exps, c in p.terms.items():
            factors = [power(i, exps[i]).terms for i in compress(slots, exps)]
            cut = max_degree if factors else None
            chain = [factors[0], {origin: c}, *factors[1:]] if factors else [unit, {origin: c}]
            term = chain[0]
            for f in chain[1:-1]:
                term = _canonical(_add_product({}, term, f, max_degree, start))
            _add_product(acc, term, chain[-1], cut, start)
        out.append(Polynomial._of(nv, _canonical(acc)))
    return out


class Elimination:
    """Exact elimination of a square matrix on its unit pivots.

    ``rows`` are the sparse rows of an n x n matrix, {column: entry} maps
    (zero entries are dropped).  Entries need ``+``, ``-``, ``*``,
    ``scale``, ``is_zero()``, ``is_constant()`` and ``constant_term()``
    (``Polynomial``, ``GradedPoly``).  A unit pivot is an entry that is a
    nonzero constant.  Pivots are taken in sparse order, deterministically:
    among the active rows that hold one, the row with the fewest entries
    (ties by row index), at its unit whose column has the fewest active
    entries (ties by column index).  The pivot's column is cleared from the
    other active rows by row operations, which are recorded, and the pivot
    row retires with its column.  Rows are reconsidered when fill-in changes
    them, so a constant that fill-in creates can still become a pivot.

    With rows and columns listed in pivot order, the eliminated matrix is
    block upper triangular, [[U, X], [0, rest]], and U's diagonal holds the
    pivots.  So det = sign * (product of the pivots) * det(rest), where sign
    is that of the two orderings and det(rest) is the division-free minor
    expansion of the pivot-free remainder, the empty product when every row
    got a pivot.  ``det`` is that determinant, ``zero`` when it vanishes.
    """

    __slots__ = ("det", "zero", "pivots", "ops", "rest", "rest_rows", "rest_cols", "rest_det")

    def __init__(self, rows: Sequence[Mapping], zero):
        n = len(rows)
        if n == 0:
            raise ValueError("determinant needs a non-empty square matrix")
        work: list[dict] = []
        cols: list[set[int]] = [set() for _ in range(n)]  # active rows holding each column
        for i, row in enumerate(rows):
            kept = {}
            for j, a in row.items():
                if not 0 <= j < n:
                    raise ValueError(f"column {j} out of range for a square matrix of {n} rows")
                if not a.is_zero():
                    kept[j] = a
                    cols[j].add(i)
            work.append(kept)
        active = [True] * n
        heap = [(len(row), i) for i, row in enumerate(work)]
        heapify(heap)
        pivots = []  # (row index, column, pivot value, its inverse, the row at pivot time)
        ops = []     # per pivot: (target row, multiplier m) for target -= m * pivot row
        while heap:
            size, r = heappop(heap)
            row = work[r]
            if not active[r] or size != len(row):
                continue  # retired, or changed since it was pushed
            units = [(len(cols[j]), j) for j, a in row.items() if a.is_constant()]
            if not units:
                continue  # pushed again if fill-in changes it
            c = min(units)[1]
            p = row[c].constant_term()
            inv = p.inverse()
            scaled = inv != ONE
            step = []
            for t in sorted(cols[c] - {r}):
                target = work[t]
                m = target.pop(c)
                if scaled:
                    m = m.scale(inv)
                for j, a in row.items():
                    if j == c:
                        continue
                    s = target.get(j)
                    s = -(m * a) if s is None else s - m * a
                    if s.is_zero():
                        target.pop(j, None)
                        cols[j].discard(t)
                    else:
                        target[j] = s
                        cols[j].add(t)
                step.append((t, m))
                heappush(heap, (len(target), t))
            active[r] = False
            for j in row:
                cols[j].discard(r)
            pivots.append((r, c, p, inv, row))
            ops.append(step)

        # pairing[row] = column: each pivot's, then the remainder's rows and
        # columns in order; the sign is that permutation's
        pairing = [0] * n
        pivot_col = [False] * n
        factor = ONE
        for r, c, p, _, _ in pivots:
            pairing[r] = c
            pivot_col[c] = True
            factor = factor * p
        self.rest_rows = [i for i in range(n) if active[i]]
        self.rest_cols = [j for j in range(n) if not pivot_col[j]]
        for i, j in zip(self.rest_rows, self.rest_cols):
            pairing[i] = j
        if _is_odd(pairing):
            factor = -factor
        position = {j: q for q, j in enumerate(self.rest_cols)}
        self.rest = [{position[j]: a for j, a in work[i].items()} for i in self.rest_rows]
        self.zero, self.pivots, self.ops = zero, pivots, ops
        if self.rest:
            self.rest_det = _minor_expansion(self.rest, zero)
            self.det = zero if self.rest_det.is_zero() else self.rest_det.scale(factor)
        else:
            # the first pivot entry over its value is the entries' one
            r, c, _, inv, row = pivots[0]
            self.rest_det = None
            self.det = row[c].scale(inv * factor)

    def solve(self, v: Sequence) -> list:
        """x with M x = v, where M is the eliminated matrix: row i of M is equation i.

        Replays the recorded row operations on ``v``, solves the pivot-free
        remainder by Cramer's rule through :func:`det`, then back-substitutes
        through the pivots in reverse.  det M must be a nonzero constant.
        """
        if not self.det.is_constant() or self.det.is_zero():
            raise ValueError("solving needs a determinant that is a nonzero constant")
        v = list(v)
        for (r, _, _, _, _), step in zip(self.pivots, self.ops):
            for t, m in step:
                v[t] = v[t] - m * v[r]
        x = [self.zero] * len(v)
        if self.rest:
            cinv = self.rest_det.constant_term().inverse()
            rhs = [v[i] for i in self.rest_rows]
            for q, j in enumerate(self.rest_cols):
                replaced = [{k: a for k, a in row.items() if k != q} for row in self.rest]
                for row, b in zip(replaced, rhs):
                    row[q] = b
                x[j] = det(replaced, self.zero).scale(cinv)
        for r, c, _, inv, row in reversed(self.pivots):
            acc = v[r]
            for j, a in row.items():
                if j != c:
                    acc = acc - a * x[j]
            x[c] = acc if inv == ONE else acc.scale(inv)
        return x


def _is_odd(perm: list[int]) -> bool:
    """Whether the permutation i -> perm[i] is odd (by its cycles)."""
    seen = [False] * len(perm)
    odd = False
    for first in range(len(perm)):
        length, i = 0, first
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            odd = not odd
    return odd


def _minor_expansion(rows: Sequence[Mapping], zero):
    """Determinant of sparse rows over columns 0..n-1, without division.

    The nonzero minors on the first k rows are kept by column bitmask
    ``cols`` and each is extended along row k: column j enters with sign
    (-1)^popcount(cols >> (j+1)), one flip per chosen column to its right.
    At most n * 2^(n-1) ring products; vanishing minors are dropped.
    """
    minors = {1 << j: a for j, a in rows[0].items()}
    for row in rows[1:]:
        grown: dict = {}
        for cols, m in minors.items():
            for j, a in row.items():
                if cols >> j & 1:
                    continue
                term = m * a
                key = cols | 1 << j
                negative = (cols >> (j + 1)).bit_count() & 1
                acc = grown.get(key)
                if acc is None:
                    grown[key] = -term if negative else term
                else:
                    grown[key] = acc - term if negative else acc + term
        minors = {cols: m for cols, m in grown.items() if not m.is_zero()}
    return minors.get((1 << len(rows)) - 1, zero)


def det(rows: Sequence[Mapping], zero):
    """Determinant of a square matrix of sparse rows over a commutative ring.

    The library's one determinant routine: ± (product of the unit pivots)
    times the minor expansion of the pivot-free remainder, both from one
    :class:`Elimination`; ``zero`` is returned when the determinant vanishes.
    """
    return Elimination(rows, zero).det


def block_jacobian(comps: Sequence[Polynomial], start: int) -> list[dict[int, Polynomial]]:
    """Square Jacobian block as sparse rows: entry (i, j) = d comps[j] / dz_(start + i).

    The library's one Jacobian routine: the row index differentiates, the
    column index enumerates components.  Row i is a {column: nonzero entry}
    map, built in one pass over the terms, which visits only the block
    variables that each term contains; a caller that needs a dense row reads
    it with a zero default.
    """
    n = len(comps)
    if not n:
        return []
    nv = comps[0].nvars
    if start < 0 or start + n > nv:
        raise IndexError(f"block {start}..{start + n - 1} out of range for {nv} variables")
    rows: list[dict[int, dict]] = [{} for _ in range(n)]
    for j, p in enumerate(comps):
        for exps, c in p.terms.items():
            for i in compress(range(n), exps[start:start + n]):
                k = start + i
                e = exps[k]
                rows[i].setdefault(j, {})[exps[:k] + (e - 1,) + exps[k + 1:]] = c * e
    return [{j: Polynomial._of(nv, terms) for j, terms in row.items()} for row in rows]


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact division in the polynomial ring; raises if ``den`` does not divide."""
    num._check_same_ring(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot: dict[tuple, Gaussian] = {}
    rem = num
    den_lead_e, den_lead_c = max(den.terms.items(), key=lambda kv: grlex_key(kv[0]))
    while not rem.is_zero():
        lead_e, lead_c = max(rem.terms.items(), key=lambda kv: grlex_key(kv[0]))
        q_e = tuple(a - b for a, b in zip(lead_e, den_lead_e))
        if any(e < 0 for e in q_e):
            raise ArithmeticError("inexact polynomial division")
        q_c = lead_c / den_lead_c
        quot[q_e] = q_c
        rem = rem - den.mul(Polynomial.monomial(q_e, q_c))
    return Polynomial(num.nvars, quot)


class PolySystem:
    """A tuple of polynomials sharing one ring: a map K^nvars -> K^len."""

    __slots__ = ("components", "nvars", "degree_bound")

    def __init__(self, components: Iterable[Polynomial], nvars: int | None = None,
                 degree_bound: int | None = None):
        comps = tuple(components)
        if nvars is None:
            if not comps:
                raise ValueError("empty system needs an explicit nvars")
            nvars = comps[0].nvars
        for p in comps:
            if p.nvars != nvars:
                raise ValueError("system components live in different rings")
        self.components = comps
        self.nvars = nvars
        actual = max((p.degree() for p in comps), default=0)
        if degree_bound is None:
            degree_bound = max(actual, 0)
        elif degree_bound < actual:
            raise ValueError(f"declared degree bound {degree_bound} below actual degree {actual}")
        self.degree_bound = degree_bound

    @staticmethod
    def identity(n: int) -> "PolySystem":
        return PolySystem([Polynomial.variable(i, n) for i in range(n)], nvars=n, degree_bound=1)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def is_square(self) -> bool:
        return len(self.components) == self.nvars

    def degree(self) -> int:
        return max((p.degree() for p in self.components), default=-1)

    def substitute(self, targets: Sequence[Polynomial]) -> "PolySystem":
        """Componentwise substitution: returns self o targets."""
        return PolySystem(compose_many(self.components, targets),
                          nvars=targets[0].nvars if targets else 0)

    def after(self, inner: "PolySystem") -> "PolySystem":
        """Composition self(inner(z)); inner must produce self.nvars coordinates."""
        if len(inner.components) != self.nvars:
            raise ValueError("composition arity mismatch")
        return self.substitute(inner.components)

    def constant_part(self) -> list[Gaussian]:
        return [p.constant_term() for p in self.components]

    def __eq__(self, other):
        if not isinstance(other, PolySystem):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def to_str(self, names: Sequence[str] | None = None) -> str:
        return "(" + ", ".join(p.to_str(names) for p in self.components) + ")"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"<PolySystem dim {len(self.components)} on {self.nvars} vars>"
