"""Jacobian matrices, exact polynomial determinants, and invertibility tests.

Index convention: the Jacobian of a square system F has entry (i, j) equal to
dF_j/dz_i -- the row index differentiates, the column index enumerates
components.  Transposing would leave every determinant unchanged but would
silently break the block bookkeeping in :mod:`polyred.elimination` and the
block-linear read-off in :func:`polyred.series.truncated_block_inverse`, so
the convention is fixed once, in :func:`polyred.poly.block_jacobian` (bound
here too), and relied on everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .poly import Polynomial, PolySystem, block_jacobian, compose_many, det
# formal_inverse_fixed_point is unused here but stays bound: perfbench's tracer
# self-test checks that the tracer patches it in this module.
from .series import LinearPartError, formal_inverse_fixed_point, truncated_block_inverse  # noqa: F401

MEMBER = "member"
NON_MEMBER = "non_member"
UNDETERMINED = "undetermined"


@dataclass
class MembershipVerdict:
    """Classifier outcome with an exact witness for decided verdicts."""

    verdict: str
    witness: object = None
    detail: str = ""

    def __str__(self):
        return f"{self.verdict}: {self.detail}" if self.detail else self.verdict


class PolyMatrix:
    """Square matrix of polynomials over one ring, held as sparse rows.

    Row i is a {column: nonzero entry} map, as
    :func:`polyred.poly.block_jacobian` builds it; a missing column is a zero
    entry.  ``nvars`` names the ring, which an all-zero matrix cannot show.
    """

    __slots__ = ("rows", "nrows", "nvars")

    def __init__(self, rows: Sequence[Mapping[int, Polynomial]], nvars: int):
        rows = [{j: p for j, p in r.items() if not p.is_zero()} for r in rows]
        if not rows:
            raise ValueError("empty matrix")
        n = len(rows)
        for r in rows:
            for j, p in r.items():
                if not 0 <= j < n:
                    raise ValueError(f"column {j} out of range for a square matrix of {n} rows")
                if p.nvars != nvars:
                    raise ValueError("matrix entries live in different rings")
        self.rows = rows
        self.nrows = n
        self.nvars = nvars

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, Polynomial.zero(self.nvars))

    def substitute(self, targets: Sequence[Polynomial]) -> "PolyMatrix":
        keys = [(i, j) for i, r in enumerate(self.rows) for j in r]
        images = compose_many([self.rows[i][j] for i, j in keys], targets)
        rows: list[dict[int, Polynomial]] = [{} for _ in self.rows]
        for (i, j), p in zip(keys, images):
            rows[i][j] = p
        return PolyMatrix(rows, targets[0].nvars)

    def det(self) -> Polynomial:
        """Exact determinant by the library's one routine, :func:`polyred.poly.det`."""
        return det(self.rows, Polynomial.zero(self.nvars))


def jacobian_matrix(F: PolySystem) -> PolyMatrix:
    """Jacobian of a square system; entry (i, j) = dF_j/dz_i."""
    if not F.is_square():
        raise ValueError("Jacobian needs a square system")
    return PolyMatrix(block_jacobian(F.components, 0), F.nvars)


def drop_degree_zero(F: PolySystem) -> PolySystem:
    """F - F(0); invertibility is unaffected by the constant part."""
    comps = [p - Polynomial.constant(p.constant_term(), p.nvars) for p in F.components]
    return PolySystem(comps, nvars=F.nvars, degree_bound=F.degree_bound)


def is_jlin(F: PolySystem) -> MembershipVerdict:
    """Constant nonzero Jacobian determinant test, decided exactly."""
    # the empty Jacobian of a system in no variables has determinant 1
    det = Polynomial.one(0) if F.is_square() and not F.nvars else jacobian_matrix(F).det()
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


def classical_degree_cap(degree: int, dim: int) -> int:
    """d^(n-1): the standard degree bound for polynomial inverses.

    This bound is imported background knowledge, not something this library
    derives; every verdict that relies on it says so in its detail text.
    """
    return max(degree, 1) ** max(dim - 1, 0)


def certify_polynomial_inverse(F: PolySystem) -> MembershipVerdict:
    """Decide polynomial invertibility by a truncated inverse plus exact composition.

    :func:`polyred.series.truncated_block_inverse`, with no parameters,
    normalizes F by its constant and linear parts, gives the formal inverse
    truncated at the classical bound d^(n-1) as the candidate P, and
    certifies it exactly in the normalized coordinates, which is equivalent
    to F(P) = y; the lemma in its docstring makes P a two-sided inverse.
    No polynomial inverse exceeds that degree, so a failed certificate is
    conclusive non-membership.  Raises :class:`LinearPartError` when the
    linear part is singular.
    """
    if not F.is_square():
        raise ValueError("invertibility certification needs a square system")
    n = F.nvars
    if n == 0:
        return MembershipVerdict(MEMBER, witness=PolySystem([], nvars=0),
                                 detail="empty system is trivially invertible")
    bound = classical_degree_cap(F.degree(), n)
    candidate, exact, _ = truncated_block_inverse(F.components, n, 0, bound)
    note = (f"degree cap {bound}; classical bound d^(n-1) = {bound} "
            f"(imported background result, not derived here)")
    if exact:
        return MembershipVerdict(MEMBER, witness=PolySystem(candidate, nvars=n),
                                 detail=f"exact two-sided polynomial inverse found; {note}")
    return MembershipVerdict(NON_MEMBER, witness=None,
                             detail=f"truncated series fails exact composition; {note}")
