import random
from fractions import Fraction
from pathlib import Path

import pytest

import polyred.elimination
from polyred.elimination import (
    BlockNotInvertibleError,
    build_H,
    elimination_variety,
    invert_R,
    invert_trailing_block,
    is_j_partial,
    is_jlin_partial,
    schur_identity_check,
    split,
)
from polyred.gaussian import Gaussian, Q
from polyred.io import read_system
from polyred.jacobian import (
    MEMBER,
    NON_MEMBER,
    certify_polynomial_inverse,
    is_jlin,
    jacobian_matrix,
)
from polyred.poly import Polynomial, PolySystem, block_jacobian, compose_many
from polyred.reduction import ALGEBRAIC, phi
from polyred.samples import curated_invertible_pairs, random_affine_split_system, random_poly
from polyred.series import truncated_block_inverse

P = Polynomial


def z(i, n=2):
    return P.variable(i, n)


def assert_two_sided_block_inverse(comps, inverse, nvars, start):
    """R(z1, R^{-1}(y2; z1)) = y2 and R^{-1}(R(z2; z1); z1) = z2, identically.

    The library certifies the first identity only; the second follows from it,
    and checking it here keeps that lemma exercised.
    """
    params = [P.variable(i, nvars) for i in range(start)]
    y = [P.variable(i, nvars) for i in range(start, nvars)]
    assert [r.compose(params + list(inverse)) for r in comps] == y
    assert [q.compose(params + list(comps)) for q in inverse] == y


def assert_slice_inverse(F, n1, witness):
    """F(P(y1)) = (y1, 0): the is_j_partial witness inverts F on the y2 = 0 slice."""
    image = F.substitute(list(witness.components))
    assert witness.nvars == n1
    assert list(image.components) == ([P.variable(i, n1) for i in range(n1)] +
                                      [P.zero(n1)] * (F.nvars - n1))


def assert_two_sided(S, Sinv):
    ident = PolySystem.identity(S.nvars)
    assert S.after(Sinv) == ident and Sinv.after(S) == ident


def test_split_block_readoff():
    S = PolySystem([z(0) + z(1), z(1) - z(0) ** 3])
    sp = split(S, 1)
    assert list(sp.r_components) == [z(1) - z(0) ** 3]
    assert list(sp.s1_components) == [z(0) + z(1)]
    assert sp.n2 == 1


def test_split_boundaries_and_range():
    S = PolySystem.identity(2)
    assert split(S, 2).n2 == 0     # empty trailing block
    assert split(S, 0).n1 == 0     # R is the whole system
    with pytest.raises(ValueError):
        split(S, 3)


def test_invert_R_closed_form():
    # trailing block z2 - a z1^d has the affine inverse y2 + a z1^d
    a = Q(Fraction(2, 3))
    S = PolySystem([z(0), z(1) - P.monomial((3, 0), a)])
    rinv = invert_R(split(S, 1))
    assert rinv.certified
    assert list(rinv.components) == [z(1) + P.monomial((3, 0), a)]
    assert_two_sided_block_inverse(S.components[1:], rinv.components, 2, 1)


def test_invert_R_identity():
    S = PolySystem.identity(2)
    rinv = invert_R(split(S, 1))
    assert rinv.certified and list(rinv.components) == [z(1)]
    assert_two_sided_block_inverse(S.components[1:], rinv.components, 2, 1)


def test_invert_R_singular_witness():
    # block (1 - z1^2) z2: the slope vanishes at z1 = 1, witnessed exactly
    S = PolySystem([z(0), z(1) - P.monomial((2, 1), 1)])
    with pytest.raises(BlockNotInvertibleError) as exc:
        invert_R(split(S, 1))
    assert exc.value.witness == P.one(2) - P.monomial((2, 0), 1)
    assert str(exc.value) == ("block Jacobian determinant is not a nonzero constant "
                              "(the block is singular for some parameter value)")


def test_invert_R_nonaffine_certified():
    v = [P.variable(i, 3) for i in range(3)]
    S = PolySystem([v[0], v[1] - v[2] ** 2, v[2]])
    rinv = invert_R(split(S, 1))
    assert rinv.certified
    assert list(rinv.components) == [v[1] + v[2] ** 2, v[2]]
    assert rinv.detail == "exact block inverse (cap 2)"
    assert_two_sided_block_inverse(S.components[1:], rinv.components, 3, 1)


def test_invert_trailing_block_parametric_non_triangular_linear_part():
    # R = S3 o S2 o S1 o S0 in the block (u, v, w) with parameter s; each step
    # has a written-down inverse, and A(s) is neither upper nor lower
    # triangular, so Cramer's rule meets both signs and entries that depend on s.
    s, u, v, w = (P.variable(i, 4) for i in range(4))
    c = Q(0, 2)

    def after(outer, inner):
        return compose_many(outer, [s] + inner)

    S0, S0inv = [u.scale(c), v, w], [u.scale(c.inverse()), v, w]
    S1, S1inv = [u + s * v, v, w], [u - s * v, v, w]
    S2, S2inv = [u, v + s * w + u ** 2, w], [u, v - s * w - u ** 2, w]
    S3, S3inv = [u, v, w + s * u + 1], [u, v, w - s * u - 1]
    R = after(S3, after(S2, after(S1, S0)))
    Rinv = after(S0inv, after(S1inv, after(S2inv, S3inv)))

    A = block_jacobian([r.homogeneous_part(1, 1) for r in R], 1)
    assert any(j < i for i in range(3) for j in A[i])
    assert any(j > i for i in range(3) for j in A[i])
    assert any(not a.is_constant() for row in A for a in row.values())

    rinv = invert_trailing_block(R, 4, 1)
    assert rinv.certified and rinv.detail == "exact block inverse (cap 4)"
    assert list(rinv.components) == Rinv
    assert_two_sided_block_inverse(R, rinv.components, 4, 1)
    P2, exact, _ = truncated_block_inverse(R, 4, 1, 2)
    assert exact and P2 == Rinv


def test_invert_trailing_block_cap_too_low():
    # R = (z1 + z2^2, z2 + (z1 + z2^2)^2) has an inverse of degree 4 = d^(n-1)
    x, y = z(0), z(1)
    R = [x + y ** 2, y + (x + y ** 2) ** 2]
    low = invert_trailing_block(R, 2, 0, 2)
    assert not low.certified
    assert low.detail == "certification failed at cap 2 < bound 4; undetermined"
    assert list(low.components) == [x - y ** 2, y - x ** 2]
    full = invert_trailing_block(R, 2, 0)
    assert full.certified and full.detail == "exact block inverse (cap 4)"
    u = y - x ** 2
    assert list(full.components) == [x - u ** 2, u]
    assert_two_sided_block_inverse(R, full.components, 2, 0)


def test_invert_R_nonaffine_non_invertible():
    # one-variable quadratic block: determinant gate catches it
    S = PolySystem([z(0), z(1) - z(1) ** 2])
    with pytest.raises(BlockNotInvertibleError):
        invert_R(split(S, 1))


def test_build_H_linear():
    S = PolySystem([z(0) + z(1), z(1)])
    sp = split(S, 1)
    H = build_H(sp, invert_R(sp))
    assert list(H.components) == [z(0) + z(1)]   # trailing slot now means y2


def test_build_H_recovers_composition():
    S = PolySystem([z(0) + z(1) ** 2, z(1) - z(0) ** 2])
    sp = split(S, 1)
    rinv = invert_R(sp)
    H = build_H(sp, rinv)
    # H(z1; y2) = S1(z1, y2 + z1^2) = z1 + (y2 + z1^2)^2
    expected = z(0) + (z(1) + z(0) ** 2) ** 2
    assert list(H.components) == [expected]


def test_build_H_needs_certified():
    S = PolySystem([z(0), z(1)])
    sp = split(S, 1)
    rinv = invert_R(sp)
    rinv.certified = False
    with pytest.raises(ValueError):
        build_H(sp, rinv)


def test_elimination_variety():
    # R = z2 - z1^2 has R^{-1}(y2; z1) = y2 + z1^2, so the slice y2 = 0 is (z1, z1^2)
    S = PolySystem([z(0) + z(1), z(1) - z(0) ** 2])
    sp = split(S, 1)
    u = P.variable(0, 1)
    assert elimination_variety(sp, invert_R(sp)) == [u, u ** 2]
    # no leading block: the variety is the single point R^{-1}(0)
    sp0 = split(PolySystem([z(0) + 2, z(1) - z(0) ** 2]), 0)
    assert elimination_variety(sp0, invert_R(sp0)) == [P.constant(-2, 0), P.constant(4, 0)]


def test_schur_identity_upper_triangular():
    S = PolySystem([z(0) + z(1), z(1)])
    sp = split(S, 1)
    ok, diff = schur_identity_check(sp, invert_R(sp))
    assert ok and diff.is_zero()


def test_schur_identity_random_affine(rng):
    for _ in range(10):
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        S = random_affine_split_system(rng, n1, n2, deg=3)
        sp = split(S, n1)
        rinv = invert_R(sp)
        assert rinv.certified
        assert_two_sided_block_inverse(sp.r_components, rinv.components, sp.N, n1)
        ok, diff = schur_identity_check(sp, rinv)
        assert ok, str(diff)


def test_schur_identity_nonaffine_block(rng):
    v = [P.variable(i, 3) for i in range(3)]
    S = PolySystem([v[0] + v[1] * v[2], v[1] - v[2] ** 2 + v[0], v[2] - v[0] ** 2])
    sp = split(S, 1)
    rinv = invert_R(sp)
    assert rinv.certified
    assert_two_sided_block_inverse(sp.r_components, rinv.components, 3, 1)
    ok, diff = schur_identity_check(sp, rinv)
    assert ok, str(diff)


def test_is_jlin_partial_boundary_matches_classical():
    for F in (PolySystem.identity(2),
              PolySystem([z(0) - z(1) ** 2, z(1)]),
              PolySystem([z(0) ** 2 + z(0), z(1)])):
        assert is_jlin_partial(F, 2).verdict == is_jlin(F).verdict


def test_is_j_partial_boundary_matches_certification():
    for F, _ in curated_invertible_pairs()[:5]:
        v = is_j_partial(F, 2)
        assert v.verdict == certify_polynomial_inverse(F).verdict
        if v.verdict == MEMBER:
            assert_slice_inverse(F, 2, v.witness)
            assert_two_sided(F, v.witness)


def test_partial_classifiers_on_slice_member():
    # non-constant determinant, but constant on the elimination variety
    F = PolySystem([z(0) - z(0) * z(1), z(1)])
    assert is_jlin(F).verdict == NON_MEMBER
    assert is_jlin_partial(F, 1).verdict == MEMBER
    v = is_j_partial(F, 1)
    assert v.verdict == MEMBER
    assert list(v.witness.components) == [P.variable(0, 1), P.zero(1)]
    assert_slice_inverse(F, 1, v.witness)


def test_is_j_partial_witness_on_interacting_blocks():
    # S = (2 z1 + (z2 + z1^3)^2, z2 + z1^3): H(.; 0) = 2 z1 is inverted by y1/2,
    # and the slice inverse is P(y1) = (y1/2, -(y1/2)^3)
    S = PolySystem([z(0).scale(2) + (z(1) + z(0) ** 3) ** 2, z(1) + z(0) ** 3])
    v = is_j_partial(S, 1)
    assert v.verdict == MEMBER
    half = P.variable(0, 1).scale(Q(Fraction(1, 2)))
    assert list(v.witness.components) == [half, -(half ** 3)]
    assert_slice_inverse(S, 1, v.witness)


def test_partial_classifiers_reject_bad_block():
    F = PolySystem([z(0), z(1) - z(0) * z(1)])
    assert is_jlin_partial(F, 1).verdict == NON_MEMBER
    assert is_j_partial(F, 1).verdict == NON_MEMBER


def test_degenerate_n1_zero():
    F = PolySystem([z(0) - z(1) ** 2, z(1)])
    assert is_jlin_partial(F, 0).verdict == MEMBER
    v = is_j_partial(F, 0)
    assert v.verdict == MEMBER
    assert_slice_inverse(F, 0, v.witness)
    G = PolySystem([z(0) - z(0) ** 2, z(1)])
    assert is_j_partial(G, 0).verdict == NON_MEMBER


def test_is_jlin_partial_scales_by_complex_block_determinant():
    # R = (1+i) z2 + z1^2 has det J_R = 1+i and R^{-1}(0; z1) = -z1^2 / (1+i)
    c = Gaussian(1, 1)
    R = z(1) * c + z(0) ** 2
    v = is_jlin_partial(PolySystem([z(0), R]), 1)
    assert (v.verdict, v.witness) == (MEMBER, c)
    # H(.; 0) = z1 + z1^3 / (1+i), so the restricted determinant is 3 z1^2 + 1+i
    v = is_jlin_partial(PolySystem([z(0) - z(0) * z(1), R]), 1)
    assert v.verdict == NON_MEMBER
    assert v.witness == P(1, {(2,): 3, (0,): c})


def dense_jlin_partial(F, n1):
    """(verdict, witness, detail) from det J_F on the elimination variety, all N variables."""
    sp = split(F, n1)
    restricted = jacobian_matrix(F).substitute(elimination_variety(sp, invert_R(sp))).det()
    if not restricted.is_constant():
        return NON_MEMBER, restricted, "determinant is non-constant on the elimination variety"
    c = restricted.constant_term()
    if n1 == 0:
        return MEMBER, c, f"Jacobian determinant at R^-1(0) is {c}"
    if c.is_zero():
        return NON_MEMBER, restricted, "determinant vanishes on the elimination variety"
    return MEMBER, c, f"determinant on the elimination variety is {c}"


def random_scaled_split_system(rng, n1, n2):
    """A square system whose trailing block is invertible with det J_R a random non-one constant.

    The block is affine (unimodular linear part) or a triangular nonlinear
    shear; its first component is then scaled.  The leading block is random,
    linear in z1, or a function of z2 only, so every verdict branch occurs.
    """
    N = n1 + n2
    if rng.random() < 0.5:
        comps = list(random_affine_split_system(rng, n1, n2).components[n1:])
    else:
        # component j is z2_j plus a polynomial in z1 and the later z2 variables
        comps = []
        for j in range(n2):
            keep = [P.variable(i, N) if i < n1 or i > n1 + j else P.zero(N) for i in range(N)]
            tail = random_poly(rng, N, range(2, 4), 0.2).compose(keep)
            comps.append(P.variable(n1 + j, N) + tail)
    scale = rng.choice([Gaussian(1, 1), Gaussian(-2), Gaussian(0, Fraction(1, 3)),
                        Gaussian(Fraction(3, 2), -1)])
    comps[0] = comps[0].scale(scale)
    kind = rng.choice(["random", "linear", "z2 only"])
    if kind == "random":
        lead = [P.variable(i, N) + random_poly(rng, N, range(1, 4), 0.2) for i in range(n1)]
    elif kind == "linear":
        lead = [random_poly(rng, n1, [1], 0.7).lift(N) for _ in range(n1)]
    else:
        lead = [random_poly(rng, n2, range(1, 3), 0.5).lift(N, n1) for _ in range(n1)]
    return PolySystem(lead + comps, nvars=N)


@pytest.mark.parametrize("n1", [0, 1, 2])
@pytest.mark.parametrize("n2", [1, 2])
def test_is_jlin_partial_matches_dense_determinant(n1, n2):
    rng = random.Random(1000 * n1 + n2)
    verdicts = set()
    for _ in range(12):
        F = random_scaled_split_system(rng, n1, n2)
        rinv = invert_R(split(F, n1))
        assert rinv.certified and rinv.det_jr != Gaussian(1)
        v = is_jlin_partial(F, n1)
        assert (v.verdict, v.witness, v.detail) == dense_jlin_partial(F, n1)
        verdicts.add((v.verdict, v.detail.split(" is ")[0]))
    if n1 > 0:
        assert len(verdicts) >= 2


def test_is_jlin_partial_builds_no_dense_jacobian(monkeypatch):
    def refuse(F):
        raise AssertionError("dense N x N Jacobian built")

    monkeypatch.setattr(polyred.elimination, "jacobian_matrix", refuse)
    F = PolySystem([z(0, 1) + z(0, 1) ** 3 * Q(Fraction(1, 2))], degree_bound=3)
    image = phi(F, ALGEBRAIC).system
    assert is_jlin_partial(image, 1).verdict == is_jlin(F).verdict == NON_MEMBER
    G = PolySystem([z(0) + z(1) ** 3, z(1)], degree_bound=3)
    v = is_jlin_partial(phi(G, ALGEBRAIC).system, 2)
    assert (v.verdict, v.witness) == (MEMBER, Gaussian(1))
    member, _ = read_system(str(Path(__file__).parent / "golden" / "member.json"))
    v = is_jlin_partial(member, 0)
    assert (v.verdict, str(v.witness)) == (MEMBER, "1-1/2*i")


def test_full_inverse_from_two_block_inverses():
    """(S^{-1})_1 = H^{-1} and (S^{-1})_2 = R^{-1}(y2; H^{-1}) is a two-sided inverse.

    No library routine assembles the full inverse, so the test does: H^{-1}
    inverts H(z1; y2) in z1 with y2 as a parameter, taken by swapping y2
    into the leading (parameter) slot of the block inverter and back.
    """
    # Interacting invertible system: S = (z1 + (z2 + z1^3)^2, z2 + z1^3).
    # Known inverse: (y1 - y2^2, y2 - (y1 - y2^2)^3).
    S = PolySystem([z(0) + (z(1) + z(0) ** 3) ** 2, z(1) + z(0) ** 3])
    sp = split(S, 1)
    rinv = invert_R(sp)
    H = build_H(sp, rinv)
    assert list(H.components) == [z(0) + z(1) ** 2]   # H(z1; y2) = z1 + y2^2
    swap = [z(1), z(0)]
    hinv = invert_trailing_block(compose_many(H.components, swap), 2, 1)
    assert hinv.certified
    Hinv = compose_many(hinv.components, swap)
    assert Hinv == [z(0) - z(1) ** 2]
    Sinv = PolySystem(Hinv + compose_many(rinv.components, Hinv + [z(1)]))
    expected = PolySystem([z(0) - z(1) ** 2, z(1) - (z(0) - z(1) ** 2) ** 3])
    assert Sinv == expected
    assert_two_sided(S, Sinv)
    assert_two_sided_block_inverse(sp.r_components, rinv.components, 2, 1)
