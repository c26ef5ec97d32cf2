"""Jacobian matrices, exact polynomial determinants, and invertibility tests.

Index convention: the Jacobian of a square system F has entry (i, j) equal to
dF_j/dz_i -- the row index differentiates, the column index enumerates
components.  Transposing would leave every determinant unchanged but would
silently break the block bookkeeping in :mod:`polyred.elimination`, so the
convention is fixed here and relied on everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .couplings import CouplingTensor
from .gaussian import Gaussian, ONE, ZERO
from .poly import Polynomial, PolySystem, det
from .series import formal_inverse_fixed_point

MEMBER = "member"
NON_MEMBER = "non_member"
UNDETERMINED = "undetermined"


@dataclass
class MembershipVerdict:
    """Classifier outcome with an exact witness for decided verdicts."""

    verdict: str
    witness: object = None
    detail: str = ""

    def is_member(self) -> bool:
        return self.verdict == MEMBER

    def __str__(self):
        return f"{self.verdict}: {self.detail}" if self.detail else self.verdict


class LinearPartError(ValueError):
    """The linear part of the system is not invertible."""


class PolyMatrix:
    """Rectangular matrix of polynomials over one ring."""

    __slots__ = ("entries", "nrows", "ncols", "nvars")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        nvars = rows[0][0].nvars
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")
            for p in r:
                if p.nvars != nvars:
                    raise ValueError("matrix entries live in different rings")
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self.nvars = nvars

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def substitute(self, targets: Sequence[Polynomial]) -> "PolyMatrix":
        return PolyMatrix([[p.compose(targets) for p in row] for row in self.entries])

    def det(self) -> Polynomial:
        """Exact determinant by the division-free minor expansion :func:`polyred.poly.det`."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        return det(self.entries, Polynomial.zero(self.nvars))


def jacobian_matrix(F: PolySystem) -> PolyMatrix:
    """Jacobian of a square system; entry (i, j) = dF_j/dz_i."""
    if not F.is_square():
        raise ValueError("Jacobian needs a square system")
    n = F.nvars
    return PolyMatrix([[F.components[j].partial(i) for j in range(n)] for i in range(n)])


def drop_degree_zero(F: PolySystem) -> PolySystem:
    """F - F(0); invertibility is unaffected by the constant part."""
    comps = [p - Polynomial.constant(p.constant_term(), p.nvars) for p in F.components]
    return PolySystem(comps, nvars=F.nvars, degree_bound=F.degree_bound)


def is_jlin(F: PolySystem) -> MembershipVerdict:
    """Constant nonzero Jacobian determinant test, decided exactly."""
    det = jacobian_matrix(F).det()
    if det.is_constant():
        c = det.constant_term()
        if c.is_zero():
            return MembershipVerdict(NON_MEMBER, witness=det,
                                     detail="Jacobian determinant is identically zero")
        return MembershipVerdict(MEMBER, witness=c,
                                 detail=f"Jacobian determinant is the constant {c}")
    offending = max((e for e in det.terms if sum(e) > 0), key=lambda e: (sum(e), e))
    term = Polynomial.monomial(offending, det.terms[offending])
    return MembershipVerdict(NON_MEMBER, witness=term,
                             detail=f"non-constant Jacobian determinant, e.g. term {term}")


def extract_couplings(F: PolySystem) -> CouplingTensor:
    """Couplings of a normalized system; reconstruction is the exact inverse."""
    return CouplingTensor.from_system(F)


def linear_part_matrix(F: PolySystem) -> list[list[Gaussian]]:
    """Constant matrix L with L[j][i] = coefficient of z_i in component j."""
    n = F.nvars
    out = []
    for p in F.components:
        lin = p.homogeneous_part(1)
        row = [ZERO] * n
        for exps, c in lin.terms.items():
            row[exps.index(1)] = c
        out.append(row)
    return out


def const_matrix_inverse(A: list[list[Gaussian]]) -> list[list[Gaussian]] | None:
    """Exact inverse of a constant square matrix, or None when singular."""
    n = len(A)
    aug = [[A[i][j] for j in range(n)] + [ONE if k == i else ZERO for k in range(n)]
           for i, _ in enumerate(A)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def classical_degree_cap(degree: int, dim: int) -> int:
    """d^(n-1): the standard degree bound for polynomial inverses.

    This bound is imported background knowledge, not something this library
    derives; every verdict that relies on it says so in its detail text.
    """
    return max(degree, 1) ** max(dim - 1, 0)


def certify_polynomial_inverse(F: PolySystem, degree_cap: int | None = None) -> MembershipVerdict:
    """Decide polynomial invertibility by truncated series plus exact composition.

    The truncated formal inverse is summed into a candidate of degree at most
    the cap and certified by composing both ways, exactly.  Failure at a cap
    at least d^(n-1) is conclusive non-membership (no polynomial inverse can
    exceed that degree); failure below the cap stays undetermined.
    """
    if not F.is_square():
        raise ValueError("invertibility certification needs a square system")
    n = F.nvars
    if n == 0:
        return MembershipVerdict(MEMBER, witness=PolySystem([], nvars=0),
                                 detail="empty system is trivially invertible")
    c0 = F.constant_part()
    F0 = drop_degree_zero(F)
    L = linear_part_matrix(F0)
    Linv = const_matrix_inverse(L)
    if Linv is None:
        raise LinearPartError("linear part of the system is singular")
    # Normalize to identity linear part: Fhat = Linv . F0.
    Fhat = PolySystem(
        [_row_combination(Linv[j], F0.components) for j in range(n)],
        nvars=n,
    )
    w = CouplingTensor.from_system(Fhat)
    bound = classical_degree_cap(F.degree(), n)
    cap = bound if degree_cap is None else degree_cap
    order = max(cap - 1, 0)
    G = formal_inverse_fixed_point(w, order)
    candidate_hat = [sum(comp.parts, Polynomial.zero(n)) for comp in G.components]
    # Undo the normalization: P(y) = candidate_hat(Linv (y - c0)).
    shifted = [Polynomial.variable(i, n) - c0[i] for i in range(n)]
    lin_applied = [_row_combination(Linv[j], shifted) for j in range(n)]
    P = PolySystem([p.compose(lin_applied) for p in candidate_hat], nvars=n)
    ident = PolySystem.identity(n)
    note = (f"degree cap {cap}; classical bound d^(n-1) = {bound} "
            f"(imported background result, not derived here)")
    if F.after(P) == ident and P.after(F) == ident:
        return MembershipVerdict(MEMBER, witness=P,
                                 detail=f"exact two-sided polynomial inverse found; {note}")
    if cap >= bound:
        high = next((r for r, parts in enumerate(zip(*(c.parts for c in G.components)))
                     if r + 1 > bound and any(not p.is_zero() for p in parts)), None)
        why = (f"formal inverse has a nonzero grade {high} (degree {high + 1} > bound)"
               if high is not None else "truncated series fails exact composition")
        return MembershipVerdict(NON_MEMBER, witness=None, detail=f"{why}; {note}")
    return MembershipVerdict(UNDETERMINED, witness=None,
                             detail=f"cap below the certified bound; {note}")


def _row_combination(row: Sequence[Gaussian], polys: Sequence[Polynomial]) -> Polynomial:
    acc = Polynomial.zero(polys[0].nvars)
    for c, p in zip(row, polys):
        if not c.is_zero():
            acc = acc + p.scale(c)
    return acc
