"""Partial elimination of variables.

A square system S on N = n1 + n2 variables is split as z = (z1, z2); the
trailing block R(z2; z1) := S_2(z1, z2) is a system in z2 whose coefficients
are polynomials in z1.  When R is invertible for every z1, the block inverse
R^{-1}(y2; z1) is itself polynomial and the eliminated system
H(z1; y2) = S_1(z1, R^{-1}(y2; z1)) carries all remaining information:

* determinants factor exactly on the elimination variety,
  det J_S(z1, R^{-1}(y2; z1)) = det J_R * det J_H (a Schur-complement fact),
  so with the constant det J_R of the block gate, the constant-determinant
  test on the variety is one n1 x n1 determinant of H(.; 0);
* S has a polynomial inverse on the y2 = 0 slice exactly when H(.; 0) does.
  The library certifies that restricted inverse (:func:`is_j_partial`), not
  the full inverse (S^{-1})_1 = H^{-1}, (S^{-1})_2 = R^{-1}(y2; H^{-1}).

Variable bookkeeping: everything stays in one ambient ring of N variables.
In inputs the trailing block means z2; in block inverses and in H the
trailing block means y2.  Identities are checked as exact polynomial
identities in (z1, y2), never pointwise.

Deciding "R invertible for all z1" takes two steps.  The gate: a det J_R
(with respect to the block) that is not a nonzero constant is an exact
non-membership witness; when R is affine in its block, J_R equals its
block-linear part A, and the elimination of A^T that solves below is the
gate.  Then :func:`polyred.series.truncated_block_inverse` normalizes R by
A, runs the library's one fixed-point loop cut at a block-degree cap (an
affine block needs no rounds), and certifies the candidate by one exact
composition in R's normalized coordinates, which holds exactly when
R(z1, R^{-1}(y2; z1)) = y2 does (an affine block takes no product); the
lemma in its docstring shows the other direction follows.  A certification
failure at a cap at least d2^(n2-1) (d2 the block degree) is conclusive,
below it undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import ONE, Gaussian
from .jacobian import (
    MEMBER,
    NON_MEMBER,
    UNDETERMINED,
    LinearPartError,
    MembershipVerdict,
    PolyMatrix,
    certify_polynomial_inverse,
    classical_degree_cap,
    jacobian_matrix,
)
from .poly import Polynomial, PolySystem, block_jacobian, compose_many
from .series import truncated_block_inverse


_SINGULAR_BLOCK = ("block Jacobian determinant is not a nonzero constant "
                   "(the block is singular for some parameter value)")


class BlockNotInvertibleError(ValueError):
    """The block system is provably not invertible for all parameter values."""

    def __init__(self, message: str, witness: Polynomial):
        super().__init__(message)
        self.witness = witness


@dataclass
class SplitSystem:
    """A square system with a designated leading parameter block of size n1."""

    S: PolySystem
    n1: int

    def __post_init__(self):
        if not self.S.is_square():
            raise ValueError("splitting needs a square system")
        if not 0 <= self.n1 <= self.S.nvars:
            raise ValueError(f"n1 = {self.n1} out of range 0..{self.S.nvars}")

    @property
    def N(self) -> int:
        return self.S.nvars

    @property
    def n2(self) -> int:
        return self.N - self.n1

    @property
    def r_components(self) -> tuple[Polynomial, ...]:
        return self.S.components[self.n1:]

    @property
    def s1_components(self) -> tuple[Polynomial, ...]:
        return self.S.components[: self.n1]


@dataclass
class PartialInverse:
    """Candidate block inverse; `certified` is set only on exact verification."""

    components: tuple[Polynomial, ...]
    certified: bool
    det_jr: Gaussian  # the gate's nonzero constant det J_R, equal to the solve's det A
    detail: str = ""


def split(S: PolySystem, n1: int) -> SplitSystem:
    return SplitSystem(S, n1)


def invert_trailing_block(comps, nvars: int, start: int, cap: int | None = None) -> PartialInverse:
    """Invert a system of nvars-start polynomials in the trailing variables.

    The leading ``start`` variables are parameters.  In the returned
    components the trailing variables are the target coordinates y.
    Raises :class:`BlockNotInvertibleError` on an exact non-invertibility
    witness, a det J_R that is not a nonzero constant: found by eliminating
    J_R when the block degree is >= 2, else carried by the solve's
    :class:`LinearPartError`, as J_R = A.  ``det_jr`` is the solve's det A,
    which is det J_R at z2 = 0.  The candidate is certified by the exact
    composition in normalized coordinates that
    :func:`polyred.series.truncated_block_inverse` checks; its docstring
    shows why that is the forward identity R(z1, R^{-1}) = y2 and makes the
    candidate a two-sided inverse.
    """
    nb = nvars - start
    if len(comps) != nb:
        raise ValueError("component count must match the block size")
    if nb == 0:
        return PartialInverse((), True, ONE, "empty block")

    block_deg = max(p.block_degree(start, nvars) for p in comps)
    if block_deg > 1:
        # J_R is not A, so it answers the gate before any fixed-point round
        detJR = PolyMatrix(block_jacobian(comps, start), nvars).det()
        if not detJR.is_constant() or detJR.is_zero():
            raise BlockNotInvertibleError(_SINGULAR_BLOCK, detJR)
    bound = classical_degree_cap(block_deg, nb)
    used_cap = bound if cap is None else cap
    try:
        _, rinv, exact, det_a = truncated_block_inverse(comps, nvars, start, used_cap)
    except LinearPartError as err:
        raise BlockNotInvertibleError(_SINGULAR_BLOCK, err.det) from None
    if exact:
        return PartialInverse(tuple(rinv), True, det_a.constant_term(),
                              f"exact block inverse (cap {used_cap})")
    if used_cap >= bound:
        raise BlockNotInvertibleError(
            f"no polynomial block inverse exists: certification fails at cap {used_cap} "
            f">= d2^(n2-1) = {bound} (imported classical degree bound)",
            det_a)
    return PartialInverse(tuple(rinv), False, det_a.constant_term(),
                          f"certification failed at cap {used_cap} < bound {bound}; undetermined")


def invert_R(sp: SplitSystem, cap: int | None = None) -> PartialInverse:
    """Block inverse of R(z2; z1); trailing variables of the result mean y2."""
    return invert_trailing_block(list(sp.r_components), sp.N, sp.n1, cap)


def build_H(sp: SplitSystem, rinv: PartialInverse) -> PolySystem:
    """H(z1; y2) = S_1(z1, R^{-1}(y2; z1)), exactly; needs a certified inverse."""
    if not rinv.certified:
        raise ValueError("build_H needs a certified block inverse")
    targets = [Polynomial.variable(i, sp.N) for i in range(sp.n1)] + list(rinv.components)
    return PolySystem(compose_many(sp.s1_components, targets), nvars=sp.N)


def elimination_variety(sp: SplitSystem, rinv: PartialInverse) -> list[Polynomial]:
    """(z1, R^{-1}(0; z1)): the block inverse on the slice y2 = 0, in the n1 leading variables."""
    z1 = [Polynomial.variable(i, sp.n1) for i in range(sp.n1)]
    return z1 + compose_many(rinv.components, z1 + [Polynomial.zero(sp.n1)] * sp.n2)


def schur_identity_check(sp: SplitSystem, rinv: PartialInverse):
    """Verify det J_S(z1, R^{-1}(y2; z1)) = det J_R * det J_H in (z1, y2).

    Returns (ok, difference), the difference witnessing a failure.  det J_R
    is read off J_S, not ``rinv.det_jr``: this is the independent check on it.
    """
    if not rinv.certified:
        raise ValueError("the Schur identity check needs a certified block inverse")
    N, n1, n2 = sp.N, sp.n1, sp.n2
    variety = [Polynomial.variable(i, N) for i in range(n1)] + list(rinv.components)

    JS = jacobian_matrix(sp.S).substitute(variety)
    lhs = JS.det()

    if n2 > 0:
        # J_R on the variety is the trailing n2 x n2 block of J_S on it
        det_r = PolyMatrix([{j - n1: p for j, p in row.items() if j >= n1}
                            for row in JS.rows[n1:]], N).det()
    else:
        det_r = Polynomial.one(N)

    if n1 > 0:
        det_h = PolyMatrix(block_jacobian(build_H(sp, rinv).components, 0), N).det()
    else:
        det_h = Polynomial.one(N)

    diff = lhs - det_r * det_h
    return diff.is_zero(), diff


def _eliminated(F: PolySystem, n1: int, cap: int | None):
    """Front end of both partial classifiers: invert R, then build H(.; 0).

    Returns the verdict when the trailing block already decides (non-member
    on a non-invertibility witness, undetermined below the degree cap), else
    (rinv, variety, H0) with H0 = S_1 on the variety, in the n1 leading variables.
    """
    sp = split(F, n1)
    try:
        rinv = invert_R(sp, cap)
    except BlockNotInvertibleError as err:
        return MembershipVerdict(NON_MEMBER, witness=err.witness,
                                 detail=f"trailing block not invertible for all parameters: {err}")
    if not rinv.certified:
        return MembershipVerdict(UNDETERMINED, detail=rinv.detail)
    variety = elimination_variety(sp, rinv)
    return rinv, variety, compose_many(sp.s1_components, variety)


def is_jlin_partial(F: PolySystem, n1: int, cap: int | None = None) -> MembershipVerdict:
    """Constant-determinant test on the elimination variety (z1, R^{-1}(0; z1)).

    On the variety det J_F = det J_R * det J_{H(.;0)} (Schur), and the block
    gate certified det J_R as a nonzero constant, so the restricted
    determinant is that constant times the n1 x n1 determinant of H(.; 0).
    """
    front = _eliminated(F, n1, cap)
    if isinstance(front, MembershipVerdict):
        return front
    rinv, _, H0 = front
    if n1 == 0:
        # The variety is the single exact point R^{-1}(0).
        return MembershipVerdict(MEMBER, witness=rinv.det_jr,
                                 detail=f"Jacobian determinant at R^-1(0) is {rinv.det_jr}")

    restricted = PolyMatrix(block_jacobian(H0, 0), n1).det().scale(rinv.det_jr)
    if not restricted.is_constant():
        return MembershipVerdict(NON_MEMBER, witness=restricted,
                                 detail="determinant is non-constant on the elimination variety")
    c = restricted.constant_term()
    if c.is_zero():
        return MembershipVerdict(NON_MEMBER, witness=restricted,
                                 detail="determinant vanishes on the elimination variety")
    return MembershipVerdict(MEMBER, witness=c,
                             detail=f"determinant on the elimination variety is {c}")


def is_j_partial(F: PolySystem, n1: int, cap: int | None = None) -> MembershipVerdict:
    """Restricted-inverse test: R invertible for all z1 and H(.; 0) invertible.

    On membership the witness is the restricted inverse of F: an n1-variable
    system P with F(P(y1)) = (y1, 0) exactly; its leading block is the
    restriction of F^{-1} to the y2 = 0 slice.
    """
    front = _eliminated(F, n1, cap)
    if isinstance(front, MembershipVerdict):
        return front
    _, variety, H0 = front
    if n1 == 0:
        return MembershipVerdict(MEMBER, witness=PolySystem(variety, nvars=0),
                                 detail="empty leading block; the block inverse certifies")

    try:
        cert = certify_polynomial_inverse(PolySystem(H0, nvars=n1))
    except LinearPartError:
        return MembershipVerdict(
            NON_MEMBER, witness=None,
            detail="eliminated system has a singular linear part, hence no inverse")
    if cert.verdict != MEMBER:
        return MembershipVerdict(cert.verdict, witness=cert.witness,
                                 detail=f"eliminated system: {cert.detail}")

    # F(P(y1)) = (y1, 0) follows by substitution from the two certified
    # inverses: F_1(P) = H0(H0^{-1}) = y1 and F_2(P) = R(R^{-1}(0; .); .) = 0.
    Hinv0 = list(cert.witness.components)
    P = PolySystem(Hinv0 + compose_many(variety[n1:], Hinv0), nvars=n1)
    return MembershipVerdict(MEMBER, witness=P,
                             detail="restricted inverse certified by exact composition")
