from fractions import Fraction

import pytest

from polyred.elimination import (
    AssemblyError,
    BlockNotInvertibleError,
    assemble_inverse,
    build_H,
    invert_H_parametrized,
    invert_R,
    invert_trailing_block,
    is_j_partial,
    is_jlin_partial,
    restrict_to_leading,
    schur_identity_check,
    split,
)
from polyred.gaussian import Q
from polyred.jacobian import MEMBER, NON_MEMBER, certify_polynomial_inverse, is_jlin
from polyred.poly import Polynomial, PolySystem
from polyred.samples import curated_invertible_pairs, random_affine_split_system

P = Polynomial


def z(i, n=2):
    return P.variable(i, n)


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


def test_invert_R_identity():
    S = PolySystem.identity(2)
    rinv = invert_R(split(S, 1))
    assert rinv.certified and list(rinv.components) == [z(1)]


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
    assert (rinv.status, rinv.detail) == ("certified", "exact block inverse (cap 2)")


def test_invert_trailing_block_cap_too_low():
    # R = (z1 + z2^2, z2 + (z1 + z2^2)^2) has an inverse of degree 4 = d^(n-1)
    x, y = z(0), z(1)
    R = [x + y ** 2, y + (x + y ** 2) ** 2]
    low = invert_trailing_block(R, 2, 0, 2)
    assert (low.certified, low.status) == (False, "cap_too_low")
    assert low.detail == "certification failed at cap 2 < bound 4; undetermined"
    assert list(low.components) == [x - y ** 2, y - x ** 2]
    full = invert_trailing_block(R, 2, 0)
    assert full.certified and full.detail == "exact block inverse (cap 4)"
    u = y - x ** 2
    assert list(full.components) == [x - u ** 2, u]


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


def test_restrict_to_leading():
    S = PolySystem([z(0) + z(1), z(1)])
    H0 = restrict_to_leading(PolySystem([z(0) + z(1)], nvars=2), 1)
    assert list(H0.components) == [P.variable(0, 1)]
    assert H0.nvars == 1


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
        ok, diff = schur_identity_check(sp, rinv)
        assert ok, str(diff)


def test_schur_identity_nonaffine_block(rng):
    v = [P.variable(i, 3) for i in range(3)]
    S = PolySystem([v[0] + v[1] * v[2], v[1] - v[2] ** 2 + v[0], v[2] - v[0] ** 2])
    sp = split(S, 1)
    rinv = invert_R(sp)
    assert rinv.certified
    ok, diff = schur_identity_check(sp, rinv)
    assert ok, str(diff)


def test_is_jlin_partial_boundary_matches_classical():
    for F in (PolySystem.identity(2),
              PolySystem([z(0) - z(1) ** 2, z(1)]),
              PolySystem([z(0) ** 2 + z(0), z(1)])):
        assert is_jlin_partial(F, 2).verdict == is_jlin(F).verdict


def test_is_j_partial_boundary_matches_certification():
    for F, _ in curated_invertible_pairs()[:5]:
        assert is_j_partial(F, 2).verdict == certify_polynomial_inverse(F).verdict


def test_partial_classifiers_on_slice_member():
    # non-constant determinant, but constant on the elimination variety
    F = PolySystem([z(0) - z(0) * z(1), z(1)])
    assert is_jlin(F).verdict == NON_MEMBER
    assert is_jlin_partial(F, 1).verdict == MEMBER
    v = is_j_partial(F, 1)
    assert v.verdict == MEMBER
    assert list(v.witness.components) == [P.variable(0, 1), P.zero(1)]


def test_partial_classifiers_reject_bad_block():
    F = PolySystem([z(0), z(1) - z(0) * z(1)])
    assert is_jlin_partial(F, 1).verdict == NON_MEMBER
    assert is_j_partial(F, 1).verdict == NON_MEMBER


def test_degenerate_n1_zero():
    F = PolySystem([z(0) - z(1) ** 2, z(1)])
    assert is_jlin_partial(F, 0).verdict == MEMBER
    assert is_j_partial(F, 0).verdict == MEMBER
    G = PolySystem([z(0) - z(0) ** 2, z(1)])
    assert is_j_partial(G, 0).verdict == NON_MEMBER


def test_assemble_inverse_triangular():
    S = PolySystem([z(0) + z(1) ** 2, z(1)])
    sp = split(S, 1)
    rinv = invert_R(sp)
    hinv = invert_H_parametrized(sp, rinv)
    assert hinv.certified
    Sinv = assemble_inverse(sp, PolySystem(list(hinv.components), nvars=2), rinv)
    assert Sinv == PolySystem([z(0) - z(1) ** 2, z(1)])


def test_assemble_inverse_identity():
    S = PolySystem.identity(3)
    sp = split(S, 1)
    rinv = invert_R(sp)
    hinv = invert_H_parametrized(sp, rinv)
    Sinv = assemble_inverse(sp, PolySystem(list(hinv.components), nvars=3), rinv)
    assert Sinv == S


def test_assemble_inverse_rejects_wrong_candidate():
    S = PolySystem([z(0) + z(1) ** 2, z(1)])
    sp = split(S, 1)
    rinv = invert_R(sp)
    wrong = PolySystem([z(0) + z(1)], nvars=2)
    with pytest.raises(AssemblyError):
        assemble_inverse(sp, wrong, rinv)


def test_assemble_inverse_full_two_blocks():
    # Interacting invertible system: S = (z1 + (z2 + z1^3)^2, z2 + z1^3).
    # Known inverse: (y1 - y2^2, y2 - (y1 - y2^2)^3).
    S = PolySystem([z(0) + (z(1) + z(0) ** 3) ** 2, z(1) + z(0) ** 3])
    sp = split(S, 1)
    rinv = invert_R(sp)
    hinv = invert_H_parametrized(sp, rinv)
    assert hinv.certified
    assert list(hinv.components) == [z(0) - z(1) ** 2]   # H(z1; y2) = z1 + y2^2
    Sinv = assemble_inverse(sp, PolySystem(list(hinv.components), nvars=2), rinv)
    expected = PolySystem([z(0) - z(1) ** 2, z(1) - (z(0) - z(1) ** 2) ** 3])
    assert Sinv == expected
