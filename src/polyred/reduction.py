"""Degree reduction of polynomial systems by one, at the price of dimension.

A square system F of degree d >= 3 on n variables maps injectively to a
system on N = n(n+1) variables of degree d - 1.  The ambient variables split
into the original block z1 (indices 0..n-1) and an auxiliary n x n block; the
auxiliary slot (i, j) sits at flat index (i+1)*n + j (0-based internally; the
file format reports 1-based pairs, matching the flat rule i*n + j there).

Two variants are implemented, because they genuinely differ:

* ``algebraic``: the image's first block is the fixed bilinear form
  sum_j z2[i][j] * z1[j], and the auxiliary block stores the Euler-weighted
  derivative sums psi[i][j] = sum_c (1/c) d(F_c)_i/dz_j of all homogeneous
  parts F_c.  It accepts any quadratic part.
* ``qft``: couplings of degree 3..d-1 are kept in place, the degree-d
  coupling is relocated onto the auxiliary block (one derivative slice per
  j), and unit bilinear couplings z_j * z_aux(i,j) are added.  Its quadratic
  couplings must vanish; accepting them would silently conflate the two
  published transform rules, so the precondition is checked and errors.

For both variants the auxiliary block of the image is affine in z2 with
identity linear part, so the elimination block inverse is trivially
certified, and H(.; 0) recovers F exactly.

:func:`phi` dispatches on the variant name.  :func:`is_in_image_of_phi`
recovers the only possible preimage from the auxiliary block by an Euler
contraction and certifies it by one forward application of phi: a system is
an image exactly when phi of its recovered candidate reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .couplings import CouplingTensor, tuple_of_exps
from .gaussian import Gaussian, ONE
from .jacobian import (
    NON_MEMBER,
    LinearPartError,
    MembershipVerdict,
    certify_polynomial_inverse,
    drop_degree_zero,
    is_jlin,
    jacobian_matrix,
)
from .elimination import (
    elimination_variety,
    invert_R,
    is_j_partial,
    is_jlin_partial,
    split,
)
from .poly import Polynomial, PolySystem, block_jacobian, compose_many
from .series import formal_inverse_fixed_point

ALGEBRAIC = "algebraic"
QFT = "qft"


def aux_index(n: int, i: int, j: int) -> int:
    """Flat ambient index of auxiliary slot (i, j), all 0-based."""
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("auxiliary slot out of range")
    return (i + 1) * n + j


@dataclass
class ReducedSystem:
    system: PolySystem
    source_dim: int
    variant: str

    def index_map(self) -> list[list[int]]:
        """[i, j, flat] triples, 1-based as used in the file format."""
        n = self.source_dim
        return [[i + 1, j + 1, aux_index(n, i, j) + 1]
                for i in range(n) for j in range(n)]

    def provenance(self) -> dict:
        return {"source_dim": self.source_dim, "variant": self.variant,
                "index_map": self.index_map()}


@dataclass
class ImageCheck:
    in_image: bool
    preimage: PolySystem | None = None
    couplings: CouplingTensor | None = None
    detail: str = ""


def euler_weighted_gradient(F: PolySystem) -> list[list[Polynomial]]:
    """psi[i][j] = sum_c (1/c) d(F_c)_i / dz_j over the homogeneous parts F_c.

    Contracting with z recovers F: sum_j z_j psi[i][j] = F_i (the classical
    homogeneous-function identity applied degree by degree).  psi is the
    transposed Jacobian of F with each term divided by its degree.
    """
    weighted = [Polynomial(F.nvars, {e: c / sum(e) for e, c in p.terms.items() if any(e)})
                for p in F.components]
    J = block_jacobian(weighted, 0)
    zero = Polynomial.zero(F.nvars)
    return [[row.get(i, zero) for row in J] for i in range(F.nvars)]


def phi_algebraic(F: PolySystem) -> ReducedSystem:
    """Dimension-raising, degree-lowering embedding; the derivative-sum variant."""
    if not F.is_square():
        raise ValueError("reduction needs a square system")
    if F.degree_bound < 3:
        raise ValueError("reduction needs degree bound at least 3")
    if any(not c.is_zero() for c in F.constant_part()):
        raise ValueError("drop the constant part before reducing")
    n = F.nvars
    N = n * (n + 1)
    psi = euler_weighted_gradient(F)
    comps: list[Polynomial] = []
    for i in range(n):
        acc = Polynomial.zero(N)
        for j in range(n):
            acc = acc + Polynomial.variable(aux_index(n, i, j), N) * Polynomial.variable(j, N)
        comps.append(acc)
    for i in range(n):
        for j in range(n):
            comps.append(Polynomial.variable(aux_index(n, i, j), N) - psi[i][j].lift(N))
    return ReducedSystem(PolySystem(comps, nvars=N, degree_bound=F.degree_bound - 1),
                         n, ALGEBRAIC)


def phi_qft(w: CouplingTensor) -> CouplingTensor:
    """Coupling transform onto n(n+1) slots; needs vanishing quadratic couplings."""
    n, d = w.dims, w.max_degree
    if d < 3:
        raise ValueError("reduction needs degree at least 3")
    if w.has_quadratic():
        raise ValueError("the coupling transform requires vanishing quadratic couplings")
    N = n * (n + 1)
    entries: dict[tuple[int, int, tuple[int, ...]], Gaussian] = {}
    for (k, i, t), c in w.entries.items():
        if 3 <= k <= d - 1:
            entries[(k, i, t)] = c
    for i in range(n):
        for j in range(n):
            t = tuple(sorted((j, aux_index(n, i, j))))
            entries[(2, i, t)] = ONE
    inv_d = Gaussian(Fraction(1, d))
    slices = block_jacobian([w.coupling_poly(i, d).scale(inv_d) for i in range(n)], 0)
    zero = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            for exps, c in slices[j].get(i, zero).terms.items():
                entries[(d - 1, aux_index(n, i, j), tuple_of_exps(exps))] = c
    return CouplingTensor(N, d - 1, entries)


def phi_qft_system(F: PolySystem) -> ReducedSystem:
    wt = phi_qft(CouplingTensor.from_system(F))
    return ReducedSystem(wt.to_system(), F.nvars, QFT)


def phi(F: PolySystem, variant: str) -> ReducedSystem:
    """The reduction of the named variant; any other name is an error."""
    if variant == ALGEBRAIC:
        return phi_algebraic(F)
    if variant == QFT:
        return phi_qft_system(F)
    raise ValueError(f"unknown variant {variant!r}")


def is_in_image_of_phi(Ft: PolySystem, n: int, variant: str) -> ImageCheck:
    """Decide whether Ft = phi(F, variant) for some F; on success F is returned.

    Recovery: in an image, auxiliary component (i, j) is z_aux(i,j) - r_ij
    with r_ij in z1 only, and the Euler contraction E_i = sum_j z_j r_ij is
    F_i (``algebraic``) or the top coupling W_d,i (``qft``, where the
    first-block residue z_i - Ft_i - sum_j z_j z_aux(i,j) holds the couplings
    of degree 3..d-1, so F_i = Ft_i + sum_j z_j z_aux(i,j) - E_i).
    Certificate: Ft is in the image exactly when phi of that candidate is Ft.
    A candidate that phi or :meth:`CouplingTensor.from_system` rejects, or
    that still involves auxiliary variables, has no image and is refused.
    """
    N = n * (n + 1)
    if Ft.nvars != N or len(Ft.components) != N:
        raise ValueError(f"image candidates must be square of dimension n(n+1) = {N}")
    if variant not in (ALGEBRAIC, QFT):
        raise ValueError(f"unknown variant {variant!r}")
    z = [Polynomial.variable(k, N) for k in range(N)]
    zero = Polynomial.zero(N)
    try:
        comps, euler = [], []
        for i in range(n):
            slots = [aux_index(n, i, j) for j in range(n)]
            euler.append(sum((z[j] * (z[a] - Ft.components[a]) for j, a in enumerate(slots)),
                             zero))
            if variant == ALGEBRAIC:
                comps.append(euler[i].restrict(n))
            else:
                bilinear = sum((z[j] * z[a] for j, a in enumerate(slots)), zero)
                comps.append((Ft.components[i] + bilinear - euler[i]).restrict(n))
        degree = max((p.degree() for p in comps), default=-1)
        if variant == QFT and all(p.is_zero() for p in euler):
            degree += 1  # no top coupling: every coupling of F has degree below d
        F = PolySystem(comps, nvars=n, degree_bound=max(3, degree))
        couplings = CouplingTensor.from_system(F) if variant == QFT else None
        image = phi(F, variant).system
    except ValueError as exc:
        return ImageCheck(False, detail=f"no candidate preimage: {exc}")
    if image != Ft:
        return ImageCheck(False, detail="phi of the recovered candidate differs from the system")
    return ImageCheck(True, preimage=F, couplings=couplings,
                      detail="recovered by Euler contraction, certified by phi")


def h_recovery_check(F: PolySystem, variant: str) -> bool:
    """The eliminated system of the image, restricted to y2 = 0, equals F."""
    rs = phi(F, variant)
    sp = split(rs.system, F.nvars)
    H0 = compose_many(sp.s1_components, elimination_variety(sp, invert_R(sp)))
    return H0 == list(F.components)


def transport_determinant_check(F: PolySystem, variant: str) -> dict:
    """det J of the image on the elimination variety vs det J_F."""
    rs = phi(F, variant)
    sp = split(rs.system, F.nvars)
    variety = elimination_variety(sp, invert_R(sp))
    det_img = jacobian_matrix(rs.system).substitute(variety).det()
    det_src = jacobian_matrix(F).det()
    return {"equal": det_img == det_src, "variant": variant}


def verify_theorem_main(F: PolySystem, variant: str) -> dict:
    """Membership transport across the reduction, on one instance.

    Compares the constant-determinant test on F with the partial test on the
    image, and the invertibility certificate on F with the restricted-inverse
    test on the image; any verdict disagreement marks the report failed, and
    so does an image from which :func:`is_in_image_of_phi` does not recover F.
    """
    n = F.nvars
    rs = phi(F, variant)
    recovered = is_in_image_of_phi(rs.system, n, variant)
    lin_src = is_jlin(F)
    lin_img = is_jlin_partial(rs.system, n)
    try:
        inv_src = certify_polynomial_inverse(F)
    except LinearPartError:
        inv_src = MembershipVerdict(NON_MEMBER, detail="singular linear part, no inverse")
    inv_img = is_j_partial(rs.system, n)
    report = {
        "variant": variant,
        "lin_source": lin_src.verdict,
        "lin_image": lin_img.verdict,
        "invertible_source": inv_src.verdict,
        "invertible_image": inv_img.verdict,
        "lin_agrees": lin_src.verdict == lin_img.verdict,
        "invertible_agrees": inv_src.verdict == inv_img.verdict,
        "image_recovered": recovered.in_image and recovered.preimage == F,
    }
    report["passed"] = (report["image_recovered"] and report["lin_agrees"]
                        and report["invertible_agrees"])
    return report


def reduced_inverse_check(w: CouplingTensor, order: int) -> dict:
    """Compare the reduced system's formal inverse against the source's.

    The reduced system's formal inverse Gt is composed onto (u, 0, theta),
    which pins its auxiliary source coordinates to zero: the inverse series
    of u - W is unique, so the solution of G = s + W(G) is Gt composed with
    s.  Its first n components must then equal the source inverse G grade by
    grade, and auxiliary component (i, j) must equal the derivative slice
    (1/d) dW_d,i/dz_j of the degree-d coupling evaluated on G, raised d - 2
    grades: one Jacobian of (1/d) theta^(d-2) W_d, evaluated on (G, theta).
    """
    n, d = w.dims, w.max_degree
    wt = phi_qft(w)
    G = [g.poly for g in formal_inverse_fixed_point(w, order).components]
    theta = Polynomial.variable(n, n + 1)
    zero = Polynomial.zero(n + 1)
    pinned = [Polynomial.variable(i, n + 1) for i in range(n)] + [zero] * (n * n) + [theta]
    Gt = compose_many([g.poly for g in formal_inverse_fixed_point(wt, order).components], pinned)
    first_ok = Gt[:n] == G
    theta_wd = Polynomial.monomial((0,) * n + (d - 2,), Gaussian(Fraction(1, d)))
    JWd = block_jacobian([w.coupling_poly(i, d).lift(n + 1) * theta_wd for i in range(n)], 0)
    # auxiliary slot (i, j) is component n + i*n + j, and JWd[j][i] differentiates W_d,i by z_j
    expected = compose_many([JWd[j].get(i, zero) for i in range(n) for j in range(n)],
                            G + [theta], order, n)
    aux_ok = Gt[n:] == expected
    return {"first_block_equal": first_ok, "aux_closed_form": aux_ok,
            "passed": first_ok and aux_ok, "order": order}


def reduce_to_quadratic(F: PolySystem) -> list[ReducedSystem]:
    """Convenience driver: iterate the reduction until the degree bound is 2."""
    stages: list[ReducedSystem] = []
    current = F
    while current.degree_bound > 2:
        rs = phi_algebraic(drop_degree_zero(current))
        stages.append(rs)
        current = rs.system
    return stages
