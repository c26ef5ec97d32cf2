"""Graded truncated series and the combinatorial formal inverse.

The grading weight of a degree-k coupling is k - 1, so a product of couplings
carries the sum of their weights.  A :class:`GradedPoly` is a scalar series
truncated at a fixed weight: one :class:`Polynomial` whose extra last
variable theta carries the grade, so series products and substitutions are
``Polynomial.mul``/``compose`` cut at the order in theta.  The formal inverse G
of a normalized system F(z) = z - sum W_k(z) is computed two independent
ways:

* :func:`formal_inverse_fixed_point` solves G = u + sum_k W_k(G) with the
  library's one inversion loop, :func:`truncated_fixed_point`, and reads
  grade r off the inverse's homogeneous part of degree r + 1 (each W_k
  application raises the degree, and the grade, by k - 1);
* :func:`tree_oracle_inverse` sums amplitudes of rooted plane trees whose
  vertices have in-degrees in {2..d}.  With plane (ordered-children) trees
  and per-ordering tensor values, no symmetry factors appear; agreement with
  the fixed point is itself a library-level test.

The scalar log-partition series ln Z = sum_{r>=1} (1/r) tr((1 - J_F(G))^r)
and the identity Z * det J_F(G) = 1 are provided on the same grading.

:func:`truncated_block_inverse` normalizes a block system by its
block-linear part, runs the same loop and certifies the result by one
forward composition; block inversion in :mod:`polyred.elimination` and
invertibility certification in :mod:`polyred.jacobian` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .couplings import CouplingTensor, distinct_orderings
from .gaussian import Gaussian
from .poly import Polynomial, det


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

    def shift(self, k: int) -> "GradedPoly":
        """Multiply by the grading indeterminate to the k-th power."""
        theta_k = Polynomial.monomial((0,) * self.nvars + (k,), 1)
        return self._with(self.poly.mul(theta_k, self.order, self.nvars))

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
    return GradedPoly(order, nv, p.compose([a.poly for a in args], order, nv))


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
    """The linear part of the system is not invertible."""


def _block_linear_decomposition(comps, nvars: int, start: int):
    """Split each component into block-constant, block-linear and higher parts."""
    nb = nvars - start
    b0, higher = [], []
    A = [[None] * nb for _ in range(len(comps))]
    for j, p in enumerate(comps):
        b0_terms, hi_terms = {}, {}
        cols = [dict() for _ in range(nb)]
        for exps, c in p.terms.items():
            bd = sum(exps[start:])
            if bd == 0:
                b0_terms[exps] = c
            elif bd == 1:
                i = next(idx for idx in range(start, nvars) if exps[idx])
                cols[i - start][exps[:start] + (0,) * nb] = c
            else:
                hi_terms[exps] = c
        b0.append(Polynomial(nvars, b0_terms))
        higher.append(Polynomial(nvars, hi_terms))
        for i in range(nb):
            A[j][i] = Polynomial(nvars, cols[i])
    return b0, A, higher


def _adjugate(A: list[list[Polynomial]]) -> list[list[Polynomial]]:
    n = len(A)
    nvars = A[0][0].nvars
    if n == 1:
        return [[Polynomial.one(nvars)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            m = det(minor, Polynomial.zero(nvars))
            adj[i][j] = m if (i + j) % 2 == 0 else -m
    return adj


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
        targets = params + Q
        Q = [yj + wj.compose(targets, t + 1, start) for yj, wj in zip(y, W)]
    return Q


def truncated_block_inverse(comps: Sequence[Polynomial], nvars: int, start: int,
                            cap: int) -> tuple[list[Polynomial], list[Polynomial], bool]:
    """Candidate inverse of a block system R, truncated at block degree ``cap``, and its check.

    R has one component per variable from index ``start`` on; its
    coefficients are polynomials in the leading ``start`` parameters.  With
    R = b0 + A z + h (h of block degree >= 2), the block-linear matrix A must
    have a nonzero constant determinant, so A^{-1} = adj(A) / det A is
    polynomial.  Then A^{-1}(R - b0) = y - W with W = -A^{-1} h,
    :func:`truncated_fixed_point` gives its truncated inverse Q, and the
    candidate P is Q(params, A^{-1}(y - b0)) (an affine R needs no rounds).
    Returns (Q, P, exact).  Raises :class:`LinearPartError` when det A is not
    a nonzero constant.

    ``exact`` is the one certification every inverse in the library gets:
    the forward composition R(params, P) == y, identically in (params, y).
    It also proves P(params, R) == z.  Without parameters: F o P = id makes
    P injective, hence dominant; P o F o P = P then gives P o F = id on the
    Zariski-dense image of P, hence identically (van den Essen, *Polynomial
    Automorphisms and the Jacobian Conjecture*, 2000, ch. 1).  With
    parameters, apply the same argument to the maps (params, R) and
    (params, P).
    """
    nb = nvars - start
    b0, A, higher = _block_linear_decomposition(comps, nvars, start)
    detA = det(A, Polynomial.zero(nvars))
    if not detA.is_constant() or detA.constant_term().is_zero():
        raise LinearPartError("linear part of the system is singular")
    cinv = detA.constant_term().inverse()
    Ainv = [[a.scale(cinv) for a in row] for row in _adjugate(A)]

    def a_inv_applied(targets):
        return [sum((Ainv[i][m] * targets[m] for m in range(nb)),
                    Polynomial.zero(nvars)) for i in range(nb)]

    y = [Polynomial.variable(start + i, nvars) for i in range(nb)]
    params = [Polynomial.variable(i, nvars) for i in range(start)]
    undo = params + a_inv_applied([yj - b for yj, b in zip(y, b0)])
    if all(h.is_zero() for h in higher):
        Q, P = y, undo[start:]
    else:
        Q = truncated_fixed_point([-wj for wj in a_inv_applied(higher)], nvars, start, cap)
        P = [q.compose(undo) for q in Q]
    return Q, P, [r.compose(params + P) for r in comps] == y


def formal_inverse_fixed_point(w: CouplingTensor, order: int,
                               source: Sequence[Polynomial] | None = None) -> GradedSeriesVector:
    """Unique graded solution of G = source + sum_k W_k(G), default source u.

    Grade r of G is homogeneous of degree r + 1 in u, so G is read off the
    inverse series Q of u - sum_k W_k(u), truncated at degree order + 1 by
    :func:`truncated_fixed_point`: grade r is Q's degree-(r + 1) part
    composed with the source.  Grade 0 equals the source; the solution
    satisfies F(G(u)) = u through the truncation order.  A non-default source
    (for instance with some zero coordinates) yields the inverse series with
    those source slots pinned.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    n = w.dims
    if source is None:
        source = [Polynomial.variable(i, n) for i in range(n)]
    if len(source) != n:
        raise ValueError(f"source must have {n} coordinates")
    nv = source[0].nvars
    W = [sum((w.coupling_poly(i, k) for k in w.degrees()), Polynomial.zero(n))
         for i in range(n)]
    Q = truncated_fixed_point(W, n, 0, order + 1)
    # Tag each degree-(r + 1) term of Q with theta^r, then substitute the source.
    lifted = [s.lift(nv + 1) for s in source] + [Polynomial.variable(nv, nv + 1)]
    return GradedSeriesVector([
        GradedPoly(order, nv, Polynomial(n + 1, {e + (sum(e) - 1,): c
                                                 for e, c in q.terms.items()}).compose(lifted))
        for q in Q])


def inversion_defect(w: CouplingTensor, G: GradedSeriesVector,
                     source: Sequence[Polynomial] | None = None) -> GradedSeriesVector:
    """F(G) - source as a graded vector; zero when G inverts F through the order."""
    order = G.order
    n = w.dims
    if source is None:
        if G.nvars != n:
            raise ValueError("the default source needs G expressed in the u-ring")
        source = [Polynomial.variable(i, n) for i in range(n)]
    out = []
    for i in range(n):
        acc = G.components[i] - GradedPoly.of_poly(source[i], order)
        for k in w.degrees():
            wp = w.coupling_poly(i, k)
            if not wp.is_zero():
                acc = acc - compose_poly(wp, G.components, order).shift(k - 1)
        out.append(acc)
    return GradedSeriesVector(out)


# -- rooted plane trees -------------------------------------------------------


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree; children are ordered, leaves are source slots."""

    children: tuple["PlaneTree", ...] = ()

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


def tree_amplitude(tree: PlaneTree, w: CouplingTensor,
                   source: Sequence[Polynomial] | None = None) -> list[Polynomial]:
    """Amplitude vector of one tree: entry i is the root-index-i contraction.

    Internal indices are contracted over all components with per-ordering
    tensor values; a leaf in slot a contributes the source polynomial of its
    index.  The plain sum of amplitudes over all plane trees of weight r is
    the grade-r part of the formal inverse.
    """
    n = w.dims
    if source is None:
        source = [Polynomial.variable(i, n) for i in range(n)]
    nv = source[0].nvars

    def amp(t: PlaneTree) -> list[Polynomial]:
        if t.is_leaf():
            return list(source)
        child_amps = [amp(c) for c in t.children]
        k = len(t.children)
        out = [Polynomial.zero(nv) for _ in range(n)]
        for (kk, i, idx), _c in w.entries.items():
            if kk != k:
                continue
            val = w.symmetric_value(k, i, idx)
            contribution = Polynomial.zero(nv)
            for ordered in distinct_orderings(idx):
                prod = Polynomial.one(nv)
                for slot, j in enumerate(ordered):
                    prod = prod * child_amps[slot][j]
                contribution = contribution + prod
            out[i] = out[i] + contribution.scale(val)
        return out

    return amp(tree)


def tree_oracle_inverse(w: CouplingTensor, order: int,
                        source: Sequence[Polynomial] | None = None) -> GradedSeriesVector:
    """Formal inverse by explicit plane-tree enumeration (oracle-scale orders)."""
    n = w.dims
    if source is None:
        source = [Polynomial.variable(i, n) for i in range(n)]
    nv = source[0].nvars
    acc = [GradedPoly.of_poly(p, order) for p in source]
    if order >= 1:
        for tree in enumerate_trees(w.max_degree, order):
            r = tree.theta_weight
            for i, p in enumerate(tree_amplitude(tree, w, source)):
                if not p.is_zero():
                    acc[i] = acc[i] + GradedPoly.of_poly(p, order, grade=r)
    return GradedSeriesVector(acc)


# -- partition function --------------------------------------------------------


def _curvature_matrix(w: CouplingTensor, G: GradedSeriesVector) -> list[list[GradedPoly]]:
    """M = 1 - J_F evaluated on G: entry (i, j) = sum_k shift(k-1, dW_k,i/dz_j (G))."""
    n = w.dims
    order = G.order
    nv = G.nvars
    M = [[GradedPoly.zero(order, nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in w.degrees():
            wp = w.coupling_poly(i, k)
            if wp.is_zero():
                continue
            for j in range(n):
                dp = wp.partial(j)
                if not dp.is_zero():
                    M[i][j] = M[i][j] + compose_poly(dp, G.components, order).shift(k - 1)
    return M


def _mat_mul(A: list[list[GradedPoly]], B: list[list[GradedPoly]]) -> list[list[GradedPoly]]:
    n = len(A)
    order, nv = A[0][0].order, A[0][0].nvars
    out = [[GradedPoly.zero(order, nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = GradedPoly.zero(order, nv)
            for m in range(n):
                acc = acc + A[i][m] * B[m][j]
            out[i][j] = acc
    return out


def _trace(A: list[list[GradedPoly]]) -> GradedPoly:
    acc = GradedPoly.zero(A[0][0].order, A[0][0].nvars)
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


def log_partition_function(w: CouplingTensor, order: int,
                           G: GradedSeriesVector | None = None) -> GradedPoly:
    """ln Z(0, u) = sum_{r=1..order} (1/r) tr(M^r) with M = 1 - J_F(G(u)).

    Every entry of M has grade >= 1, so the sum is finite at any truncation.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if G is None:
        G = formal_inverse_fixed_point(w, order)
    M = _curvature_matrix(w, G)
    acc = GradedPoly.zero(order, G.nvars)
    power = M
    for r in range(1, order + 1):
        acc = acc + _trace(power).scale(Gaussian(Fraction(1, r)))
        if r < order:
            power = _mat_mul(power, M)
    return acc


def det_jacobian_on_inverse(w: CouplingTensor, order: int,
                            G: GradedSeriesVector | None = None) -> GradedPoly:
    """det J_F(G(u)) as a graded series (division-free minor expansion of 1 - M)."""
    if G is None:
        G = formal_inverse_fixed_point(w, order)
    M = _curvature_matrix(w, G)
    n = w.dims
    one = GradedPoly.one(order, G.nvars)
    J = [[(one - M[i][j]) if i == j else -M[i][j] for j in range(n)] for i in range(n)]
    return det(J, GradedPoly.zero(order, G.nvars))


def z_det_identity_check(w: CouplingTensor, order: int) -> tuple[bool, GradedPoly]:
    """Verify exp(ln Z) * det J_F(G(u)) = 1 through the truncation order."""
    G = formal_inverse_fixed_point(w, order)
    Z = log_partition_function(w, order, G).exp()
    D = det_jacobian_on_inverse(w, order, G)
    residual = Z * D - GradedPoly.one(order, G.nvars)
    return residual.is_zero(), residual


def theta_homogeneity_check(w: CouplingTensor, order: int, lam) -> bool:
    """Check the grading/rescaling identity of the formal inverse.

    Grade r of G is homogeneous of degree r + 1 in the source variables, so
    G(u) = lam^(-1) * G(lam*u) with the grading indeterminate rescaled by
    lam^(-1); this is what is verified, grade by grade.
    """
    lam = Gaussian.coerce(lam)
    if lam.is_zero():
        raise ValueError("scaling factor must be nonzero")
    G = formal_inverse_fixed_point(w, order)
    inv = lam.inverse()
    # theta -> theta / lam undoes the grade, lam^(-1) is the overall prefactor.
    factors = [lam] * G.nvars + [inv]
    return all(c.poly.scale_vars(factors).scale(inv) == c.poly for c in G.components)
