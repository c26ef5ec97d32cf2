"""Graded truncated series and the combinatorial formal inverse.

The grading weight of a degree-k coupling is k - 1, so a product of couplings
carries the sum of their weights.  The rule is written once, in
:meth:`CouplingTensor.graded_nonlinearity`: W~ = sum_k theta^(k-1) W_k, and
each graded quantity below evaluates W~ or its Jacobian on G in one
``compose_many`` batch.  A :class:`GradedPoly` is a scalar series
truncated at a fixed weight: one :class:`Polynomial` whose extra last
variable theta carries the grade, so series products and substitutions are
``Polynomial.mul``/``compose`` cut at the order in theta.  The formal inverse G
of a normalized system F(z) = z - sum W_k(z) is computed two independent
ways:

* :func:`formal_inverse_fixed_point` solves G = u + sum_k W_k(G) with the
  library's one inversion loop, :func:`truncated_fixed_point`, and tags
  each term of degree r + 1 with theta^r (each W_k application raises the
  degree, and the grade, by k - 1), so no substitution follows the loop;
* :func:`tree_oracle_inverse` sums amplitudes of rooted plane trees whose
  vertices have in-degrees in {2..d} and whose leaves are the variables u.
  With plane (ordered-children) trees and per-ordering tensor values, no
  symmetry factors appear; agreement with the fixed point is itself a
  library-level test.  A vertex sums every ordering of each index multiset,
  so permuting its children leaves its amplitude unchanged: every plane
  tree is enumerated, but each unordered subtree is contracted once per
  call.

The partition function is one pass over one curvature matrix
M = 1 - J_F(G), the Jacobian of W~ evaluated on G and held as sparse rows:
:func:`partition_identity` builds G and M once and returns the log-partition
series ln Z = sum_{r>=1} (1/r) tr(M^r), the sum of one-loop graphs, with the
residual of the identity Z * det(1 - M) = 1 on the same grading; the
determinant is :func:`polyred.poly.det` on the rows of 1 - M.

:func:`truncated_block_inverse` normalizes a block system by its
block-linear part, read off with :func:`polyred.poly.block_jacobian` and
solved by one :class:`polyred.poly.Elimination` on its unit pivots, runs the
same loop and certifies the result by one exact composition in the
normalized coordinates, which is equivalent to the forward check R(P) = y;
block inversion in :mod:`polyred.elimination` and invertibility
certification in :mod:`polyred.jacobian` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .couplings import CouplingTensor, distinct_orderings
from .gaussian import Gaussian
from .poly import Elimination, Polynomial, block_jacobian, compose_many, det


class GradedPoly:
    """Scalar series truncated at grade ``order``, stored as one polynomial.

    ``poly`` lives in ``nvars + 1`` variables: the last one is the grading
    indeterminate theta, and the terms with theta-exponent r form the grade-r
    part.  No term has theta-exponent above ``order``; products cut there, so
    series arithmetic is :class:`Polynomial` arithmetic with the block-degree
    cut applied to theta.
    """

    __slots__ = ("order", "nvars", "poly")

    def __init__(self, order: int, nvars: int, poly: Polynomial | None = None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        if poly is None:
            poly = Polynomial.zero(nvars + 1)
        elif poly.nvars != nvars + 1:
            raise ValueError("a graded series needs one variable more than its ring")
        self.order = order
        self.nvars = nvars
        self.poly = poly

    @staticmethod
    def zero(order: int, nvars: int) -> "GradedPoly":
        return GradedPoly(order, nvars)

    @staticmethod
    def of_poly(p: Polynomial, order: int, grade: int = 0) -> "GradedPoly":
        """p placed at ``grade`` (the zero series when grade > order)."""
        if grade > order:
            return GradedPoly(order, p.nvars)
        return GradedPoly(order, p.nvars,
                          Polynomial(p.nvars + 1, {e + (grade,): c for e, c in p.terms.items()}))

    @staticmethod
    def one(order: int, nvars: int) -> "GradedPoly":
        return GradedPoly.of_poly(Polynomial.one(nvars), order)

    def grade(self, r: int) -> Polynomial:
        return Polynomial(self.nvars, {e[:-1]: c for e, c in self.poly.terms.items() if e[-1] == r})

    @property
    def parts(self) -> list[Polynomial]:
        return [self.grade(r) for r in range(self.order + 1)]

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_constant(self) -> bool:
        return self.poly.is_constant()

    def constant_term(self) -> Gaussian:
        return self.poly.constant_term()

    def min_grade(self) -> int | None:
        return min((e[-1] for e in self.poly.terms), default=None)

    def _with(self, poly: Polynomial) -> "GradedPoly":
        return GradedPoly(self.order, self.nvars, poly)

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        return self._with(self.poly + other.poly)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        return self._with(self.poly - other.poly)

    def __neg__(self) -> "GradedPoly":
        return self._with(-self.poly)

    def scale(self, c) -> "GradedPoly":
        return self._with(self.poly.scale(c))

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        return self._with(self.poly.mul(other.poly, self.order, self.nvars))

    def exp(self) -> "GradedPoly":
        """exp of a series with vanishing grade-0 part (finite sum after truncation)."""
        if self.min_grade() == 0:
            raise ValueError("exp needs a series with zero grade-0 part")
        out = GradedPoly.one(self.order, self.nvars)
        power = GradedPoly.one(self.order, self.nvars)
        fact = 1
        for m in range(1, self.order + 1):
            power = power * self
            fact *= m
            out = out + power.scale(Gaussian(Fraction(1, fact)))
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.order, self.nvars, self.poly) == (other.order, other.nvars, other.poly)

    def _check(self, other: "GradedPoly"):
        if self.order != other.order or self.nvars != other.nvars:
            raise ValueError("graded series mismatch (order or ring)")

    def __repr__(self):
        inner = "; ".join(f"[{r}] {p}" for r, p in enumerate(self.parts) if not p.is_zero())
        return f"<GradedPoly order {self.order}: {inner or '0'}>"


def compose_poly(p: Polynomial, args: Sequence[GradedPoly], order: int) -> GradedPoly:
    """Evaluate a polynomial on graded-series arguments, truncating at ``order``."""
    if len(args) != p.nvars:
        raise ValueError("composition arity mismatch")
    if not args:
        return GradedPoly.of_poly(Polynomial.constant(p.constant_term(), 0), order)
    nv = args[0].nvars
    return GradedPoly(order, nv, compose_many([p], [a.poly for a in args], order, nv)[0])


class GradedSeriesVector:
    """A vector of graded scalar series sharing one truncation order and ring."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[GradedPoly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("empty series vector")
        for c in comps:
            if (c.order, c.nvars) != (comps[0].order, comps[0].nvars):
                raise ValueError("series vector components disagree on order or ring")
        self.components = comps

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i) -> GradedPoly:
        return self.components[i]

    def grade(self, r: int) -> list[Polynomial]:
        return [c.grade(r) for c in self.components]

    def __eq__(self, other):
        if not isinstance(other, GradedSeriesVector):
            return NotImplemented
        return self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return f"<GradedSeriesVector len {len(self.components)} order {self.order}>"


class LinearPartError(ValueError):
    """The linear part of the system is not invertible; ``det`` is its determinant."""

    def __init__(self, message: str, det: Polynomial):
        super().__init__(message)
        self.det = det


def truncated_fixed_point(W: Sequence[Polynomial], nvars: int, start: int,
                          cap: int) -> list[Polynomial]:
    """Solve Q = y + W(params, Q) through degree ``cap`` in the block variables.

    The block variables y are those from index ``start`` on, one per entry of
    W; the leading ``start`` variables are parameters.  Every term of W has
    block degree >= 2, so round t makes Q exact through block degree t + 1,
    and every product of round t is cut there.  After cap - 1 rounds Q is the
    inverse series of y - W truncated at block degree cap (Q = y for cap <= 1).
    This is the library's one inversion loop.
    """
    y = [Polynomial.variable(start + j, nvars) for j in range(len(W))]
    params = [Polynomial.variable(i, nvars) for i in range(start)]
    Q = y
    for t in range(1, cap):
        Q = [yj + wj for yj, wj in zip(y, compose_many(W, params + Q, t + 1, start))]
    return Q


def truncated_block_inverse(comps: Sequence[Polynomial], nvars: int, start: int,
                            cap: int) -> tuple[list[Polynomial], bool, Polynomial]:
    """Candidate inverse of a block system R, truncated at block degree ``cap``, and its check.

    R has one component per variable from index ``start`` on; its
    coefficients are polynomials in the leading ``start`` parameters.  Write
    R = b0 + A^T z + h with h of block degree >= 2: b0 is R's block-degree-0
    part, and A is the block Jacobian of R's block-linear part, so
    A[i][j] = dR_j/dz_(start+i) at z = 0.  One :class:`polyred.poly.Elimination`
    of A^T, whose row j is the equation of component j, gives det A and
    solves A^T x = v polynomially: it pivots on the constant entries, replays
    its row operations on v, takes Cramer's rule on the pivot-free remainder
    only and back-substitutes.  det A must be a nonzero constant (else
    :class:`LinearPartError` carries it), so the remainder's determinant is
    one too.  For every degree-reduction image A is the identity and the
    remainder is empty.  Solving A^T x = R - b0 gives y - W with
    W = -A^{-T} h, :func:`truncated_fixed_point` gives its truncated inverse
    Q, and the candidate P is Q(params, x) with A^T x = y - b0 (an affine R
    has W = 0).  Returns (P, exact, det A).

    ``exact`` is the one certification every inverse in the library gets,
    taken in the normalized coordinates: Q - W(params, Q) == y, identically
    in (params, y), by one untruncated composition of W with Q.  It holds
    exactly when R(params, P) == y does.  Write x(y) = A^{-T}(y - b0).  Then
    R(params, P) = y holds exactly when A^{-T}(R(params, P) - b0) = x, that
    is, when Q(x) - W(params, Q(x)) = x.  As det A is a nonzero constant,
    (params, y) -> (params, x) is a polynomial automorphism, so that
    identity holds for all (params, y) exactly when it holds for all
    (params, x), which is Q - W(params, Q) = y with x named y.  The
    normalized check skips the affine change of variables that the forward
    one expands and cancels, and an affine block (W = 0) takes no product.

    The check also proves P(params, R) == z.  Without parameters: F o P = id
    makes P injective, hence dominant; P o F o P = P then gives P o F = id
    on the Zariski-dense image of P, hence identically (van den Essen,
    *Polynomial Automorphisms and the Jacobian Conjecture*, 2000, ch. 1).
    With parameters, apply the same argument to the maps (params, R) and
    (params, P).
    """
    nb = nvars - start
    A = block_jacobian([p.homogeneous_part(1, start) for p in comps], start)
    b0 = [p.homogeneous_part(0, start) for p in comps]
    equations: list[dict[int, Polynomial]] = [{} for _ in range(nb)]
    for i, row in enumerate(A):
        for j, a in row.items():
            equations[j][i] = a
    elim = Elimination(equations, Polynomial.zero(nvars))
    if not elim.det.is_constant() or elim.det.is_zero():
        raise LinearPartError("linear part of the system is singular", elim.det)

    y = [Polynomial.variable(start + i, nvars) for i in range(nb)]
    params = [Polynomial.variable(i, nvars) for i in range(start)]
    W = [yi - xi for yi, xi in zip(y, elim.solve([r - b for r, b in zip(comps, b0)]))]
    Q = truncated_fixed_point(W, nvars, start, cap)
    P = compose_many(Q, params + elim.solve([yi - b for yi, b in zip(y, b0)]))
    exact = [q - w for q, w in zip(Q, compose_many(W, params + Q))] == y
    return P, exact, elim.det


def formal_inverse_fixed_point(w: CouplingTensor, order: int) -> GradedSeriesVector:
    """Unique graded solution of G = u + sum_k W_k(G), through grade ``order``.

    Grade r of G is homogeneous of degree r + 1 in u, so G is the inverse
    series Q of u - sum_k W_k(u), truncated at degree order + 1 by
    :func:`truncated_fixed_point`, with each degree-(r + 1) term tagged
    theta^r.  Grade 0 is u, and F(G(u)) = u through the truncation order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    n = w.dims
    W = [sum((w.coupling_poly(i, k) for k in w.degrees()), Polynomial.zero(n))
         for i in range(n)]
    Q = truncated_fixed_point(W, n, 0, order + 1)
    return GradedSeriesVector([
        GradedPoly(order, n, Polynomial(n + 1, {e + (sum(e) - 1,): c for e, c in q.terms.items()}))
        for q in Q])


def inversion_defect(w: CouplingTensor, G: GradedSeriesVector) -> GradedSeriesVector:
    """F(G) - u as a graded vector; zero when G inverts F through the order."""
    n = w.dims
    if G.nvars != n:
        raise ValueError("the inversion defect needs G expressed in the u-ring")
    theta = Polynomial.variable(n, n + 1)
    WG = compose_many(w.graded_nonlinearity(), [g.poly for g in G.components] + [theta],
                      G.order, n)
    return GradedSeriesVector([GradedPoly(G.order, n, g.poly - Polynomial.variable(i, n + 1) - wg)
                               for i, (g, wg) in enumerate(zip(G.components, WG))])


# -- rooted plane trees -------------------------------------------------------


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree; children are ordered, a leaf stands for the variables u.

    Equality is by value; the hash is computed once, from the children's
    stored hashes, so a memo lookup does not walk the subtree.
    """

    children: tuple["PlaneTree", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.children))

    def __hash__(self):
        return self._hash

    def is_leaf(self) -> bool:
        return not self.children

    @property
    def theta_weight(self) -> int:
        """Sum of (in-degree - 1) over internal vertices."""
        if self.is_leaf():
            return 0
        return (len(self.children) - 1) + sum(c.theta_weight for c in self.children)

    def __repr__(self):
        if self.is_leaf():
            return "*"
        return "(" + "".join(repr(c) for c in self.children) + ")"


LEAF = PlaneTree()


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _trees_of_weight(r: int, d: int, memo: dict[int, list[PlaneTree]]) -> list[PlaneTree]:
    got = memo.get(r)
    if got is not None:
        return got
    if r == 0:
        out = [LEAF]
    else:
        out = []
        for k in range(2, d + 1):
            if k - 1 > r:
                break
            for weights in _compositions(r - (k - 1), k):
                pools = [_trees_of_weight(wt, d, memo) for wt in weights]
                stack: list[tuple[PlaneTree, ...]] = [()]
                for pool in pools:
                    stack = [pre + (t,) for pre in stack for t in pool]
                out.extend(PlaneTree(ch) for ch in stack)
    memo[r] = out
    return out


def enumerate_trees(d: int, max_weight: int) -> Iterator[PlaneTree]:
    """All plane trees with in-degrees in {2..d} and 1 <= theta_weight <= max_weight."""
    if d < 2:
        raise ValueError("maximal in-degree must be at least 2")
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    memo: dict[int, list[PlaneTree]] = {}
    for r in range(1, max_weight + 1):
        yield from _trees_of_weight(r, d, memo)


def _total(polys: list[Polynomial], nvars: int) -> Polynomial:
    """The sum of ``polys``, started from the first rather than from zero."""
    return sum(polys[1:], polys[0]) if polys else Polynomial.zero(nvars)


def _amplitudes(w: CouplingTensor) -> Callable[[PlaneTree], list[Polynomial]]:
    """amp(tree) -> amplitude vector, for one tensor.

    A vertex of in-degree k sums every distinct ordering of each index
    multiset, each with the per-ordering value c / #orderings.  Permuting the
    vertex's children permutes its slots, and that sum is invariant under it,
    so an amplitude depends only on the tree's unordered shape: the sorted
    tuple of its children's shapes, () for the leaf.  Each shape gets a small
    int id when first seen, the leaf's amplitude (the variables u) is id 0,
    and each unordered subtree is contracted once for as long as the returned
    function lives; mirror trees share one amplitude object.

    A product of child amplitudes depends only on the multiset of its
    (child shape, index) factors, because multiplication commutes, so
    products are memoised by the sorted factor tuple and built as prefix
    products: each extends the product of all its factors but the last.  The
    vertex rules of each in-degree k (root index, per-ordering value and
    distinct index orderings) are read off the tensor once, up front.
    """
    n = w.dims
    rules: dict[int, list[tuple[int, Gaussian, list[tuple[int, ...]]]]] = {}
    for k, i, idx in w.entries:
        rules.setdefault(k, []).append(
            (i, w.symmetric_value(k, i, idx), list(distinct_orderings(idx))))
    amps: list[list[Polynomial]] = [[Polynomial.variable(i, n) for i in range(n)]]
    ids: dict[tuple[int, ...], int] = {(): 0}
    shape_of: dict[PlaneTree, int] = {LEAF: 0}
    products: dict[tuple[tuple[int, int], ...], Polynomial] = {}

    def product(factors: tuple[tuple[int, int], ...]) -> Polynomial:
        got = products.get(factors)
        if got is None:
            s, j = factors[-1]
            got = amps[s][j] if len(factors) == 1 else product(factors[:-1]) * amps[s][j]
            products[factors] = got
        return got

    def shape(t: PlaneTree) -> int:
        s = shape_of.get(t)
        if s is None:
            children = tuple(sorted(shape(c) for c in t.children))
            s = ids.get(children)
            if s is None:
                parts: list[list[Polynomial]] = [[] for _ in range(n)]
                for i, val, orderings in rules.get(len(children), ()):
                    parts[i].append(_total([product(tuple(sorted(zip(children, o))))
                                            for o in orderings], n).scale(val))
                s = ids[children] = len(amps)
                amps.append([_total(p, n) for p in parts])
            shape_of[t] = s
        return s

    return lambda t: amps[shape(t)]


def tree_amplitude(tree: PlaneTree, w: CouplingTensor) -> list[Polynomial]:
    """Amplitude vector of one tree: entry i is the root-index-i contraction.

    Internal indices are contracted over all components with per-ordering
    tensor values; a leaf of index j contributes the variable u_j.  The
    amplitude depends only on the tree's unordered shape (see
    :func:`_amplitudes`), so a tree and its mirror images agree, and each
    unordered subtree is contracted once per call.  The plain sum of
    amplitudes over all plane trees of weight r is the grade-r part of the
    formal inverse.
    """
    return _amplitudes(w)(tree)


def tree_oracle_inverse(w: CouplingTensor, order: int) -> GradedSeriesVector:
    """Formal inverse by explicit plane-tree enumeration (oracle-scale orders).

    Grade 0 is u, and grade r is the sum of the amplitudes of the plane
    trees of weight r.  Every plane tree is enumerated, so each grade is a
    sum over Catalan-many trees with no symmetry factors, but one amplitude
    function serves the whole call, and it contracts each unordered subtree
    once: a vertex's amplitude does not depend on the order of its children.
    Each grade is summed as plain polynomials and tagged theta^r once.
    The oracle shares no routine with :func:`formal_inverse_fixed_point`:
    no ``compose_many``, ``truncated_fixed_point`` or graded nonlinearity.
    """
    n = w.dims
    acc = [GradedPoly.of_poly(Polynomial.variable(i, n), order) for i in range(n)]
    if order >= 1:
        amp = _amplitudes(w)
        trees: dict[int, list[PlaneTree]] = {}
        for r in range(1, order + 1):
            vectors = [amp(tree) for tree in _trees_of_weight(r, w.max_degree, trees)]
            for i in range(n):
                grade = _total([v[i] for v in vectors if not v[i].is_zero()], n)
                acc[i] = acc[i] + GradedPoly.of_poly(grade, order, grade=r)
    return GradedSeriesVector(acc)


# -- partition function --------------------------------------------------------


def _curvature_matrix(w: CouplingTensor, G: GradedSeriesVector) -> list[dict[int, GradedPoly]]:
    """The Jacobian of W~ evaluated on G as sparse rows: row j maps i to dW~_i/dz_j (G).

    This is M = 1 - J_F(G) transposed, as :func:`polyred.poly.block_jacobian`
    orients it; traces of powers and the determinant do not see the transpose.
    Only the nonzero entries of the Jacobian of W~ are composed, in one
    ``compose_many`` batch, and an entry that the truncation cuts to zero is
    left out too.
    """
    nv = G.nvars
    theta = Polynomial.variable(nv, nv + 1)
    JW = block_jacobian(w.graded_nonlinearity(), 0)
    slots = [(j, i) for j, row in enumerate(JW) for i in row]
    composed = compose_many([JW[j][i] for j, i in slots],
                            [g.poly for g in G.components] + [theta], G.order, nv)
    M: list[dict[int, GradedPoly]] = [{} for _ in JW]
    for (j, i), p in zip(slots, composed):
        if not p.is_zero():
            M[j][i] = GradedPoly(G.order, nv, p)
    return M


def _log_partition(M: list[dict[int, GradedPoly]], order: int, nv: int) -> GradedPoly:
    """sum_{r=1..order} (1/r) tr(M^r), with each power taken row by sparse row."""
    zero = GradedPoly.zero(order, nv)
    acc = zero
    power = M
    for r in range(1, order + 1):
        trace = sum((row[j] for j, row in enumerate(power) if j in row), zero)
        acc = acc + trace.scale(Gaussian(Fraction(1, r)))
        if r < order:
            nxt = []
            for row in power:
                out: dict[int, GradedPoly] = {}
                for m, a in row.items():
                    for i, b in M[m].items():
                        out[i] = out[i] + a * b if i in out else a * b
                nxt.append({i: p for i, p in out.items() if not p.is_zero()})
            power = nxt
    return acc


def _det_one_minus(M: list[dict[int, GradedPoly]], order: int, nv: int) -> GradedPoly:
    """det(1 - M) on the sparse rows of M, by :func:`polyred.poly.det`."""
    zero, one = GradedPoly.zero(order, nv), GradedPoly.one(order, nv)
    rows = [{i: -m for i, m in row.items()} for row in M]
    for j, row in enumerate(rows):
        row[j] = one + row.get(j, zero)
    return det(rows, zero)


def partition_identity(w: CouplingTensor, order: int) -> tuple[GradedPoly, GradedPoly]:
    """ln Z(0, u) and the residual exp(ln Z) * det J_F(G(u)) - 1, from one curvature matrix.

    ln Z = sum_{r=1..order} (1/r) tr(M^r) with M = 1 - J_F(G(u)), and
    det J_F(G) = det(1 - M).  Every entry of M has grade >= 1, so the sum is
    finite at any truncation, and the residual vanishes through the order
    exactly when Z * det J_F(G) = 1 does.  G and M are each built once.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    G = formal_inverse_fixed_point(w, order)
    M = _curvature_matrix(w, G)
    ln_z = _log_partition(M, order, G.nvars)
    residual = ln_z.exp() * _det_one_minus(M, order, G.nvars) - GradedPoly.one(order, G.nvars)
    return ln_z, residual


def z_det_identity_check(w: CouplingTensor, order: int) -> tuple[bool, GradedPoly]:
    """Verify exp(ln Z) * det J_F(G(u)) = 1 through the truncation order."""
    _, residual = partition_identity(w, order)
    return residual.is_zero(), residual


def theta_homogeneity_check(w: CouplingTensor, order: int, lam) -> bool:
    """Check the grading/rescaling identity of the formal inverse.

    Grade r of G is homogeneous of degree r + 1 in u, so
    G(u) = lam^(-1) * G(lam*u) with the grading indeterminate rescaled by
    lam^(-1); this is what is verified, grade by grade.  As
    :func:`formal_inverse_fixed_point` tags each term's grade by its degree,
    on its output the identity checks that tag; the tree oracle, which
    grades by tree weight, checks the same fact independently.
    """
    lam = Gaussian.coerce(lam)
    if lam.is_zero():
        raise ValueError("scaling factor must be nonzero")
    G = formal_inverse_fixed_point(w, order)
    inv = lam.inverse()
    # theta -> theta / lam undoes the grade, lam^(-1) is the overall prefactor.
    factors = [lam] * G.nvars + [inv]
    return all(c.poly.scale_vars(factors).scale(inv) == c.poly for c in G.components)
