from fractions import Fraction

import pytest

from polyred.family import (
    FamilyInstance,
    closed_form_jlin_conditions,
    closed_form_partial_conditions,
    closed_sum_form,
    corpus_report,
    family_system,
    reference_form_deviation,
    separation_witnesses,
    specialized_jacobian,
)
from polyred.gaussian import Q
from polyred.jacobian import MEMBER, NON_MEMBER, is_jlin, jacobian_matrix
from polyred.elimination import is_jlin_partial, is_j_partial
from polyred.poly import Polynomial, PolySystem

P = Polynomial


def inst(d, a1, a2):
    return FamilyInstance.of(d, a1, a2)


def test_family_system_zero_is_identity():
    assert family_system(inst(3, [0] * 4, [0] * 4)) == PolySystem.identity(2)


def test_family_system_single_coefficients():
    # only a[2,3] = 1: (z1, z2 - z1^3)
    F = family_system(inst(3, [0] * 4, [0, 0, 0, 1]))
    assert F == PolySystem([P.variable(0, 2), P.variable(1, 2) - P.monomial((3, 0), 1)])
    # only a[1,0] = 1: (z1 - z2^3, z2)
    G = family_system(inst(3, [1, 0, 0, 0], [0] * 4))
    assert G == PolySystem([P.variable(0, 2) - P.monomial((0, 3), 1), P.variable(1, 2)])


def test_general_determinant_expansion(rng):
    # det J_F = 1 - sum (a1[k+1](k+1) + a2[k](d-k)) z1^k z2^(d-1-k)
    #             + sum a1[k] a2[l] d(k-l) z1^(k+l-1) z2^(2d-k-l-1)
    for d in (2, 3):
        for _ in range(8):
            a1 = [Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(d + 1)]
            a2 = [Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(d + 1)]
            F = family_system(FamilyInstance(d, tuple(a1), tuple(a2)))
            det = jacobian_matrix(F).det()
            expected = P.one(2)
            for k in range(d):
                c = a1[k + 1] * (k + 1) + a2[k] * (d - k)
                expected = expected - P.monomial((k, d - 1 - k), c)
            # the only slot with a negative exponent is k = l = d, whose
            # coefficient d(k-l) vanishes, so it is skipped with the zeros
            for k in range(d + 1):
                for l in range(d + 1):
                    if k + l >= 1:
                        c = a1[k] * a2[l] * Q(d * (k - l))
                        if not c.is_zero():
                            expected = expected + P.monomial(
                                (k + l - 1, 2 * d - k - l - 1), c)
            assert det == expected


def test_closed_form_jlin_matches_determinant_on_members():
    # proportional rows with the linear constraints give det exactly 1
    member = inst(2, [1, -2, 1], [1, -2, 1])
    assert closed_form_jlin_conditions(member)
    assert is_jlin(family_system(member)).verdict == MEMBER
    # single coefficient fails the linear condition
    bad = inst(2, [0, 1, 0], [0] * 3)
    assert not closed_form_jlin_conditions(bad)
    assert is_jlin(family_system(bad)).verdict == NON_MEMBER


def test_closed_form_partial_examples():
    d = 3
    # first case: only a[2,d] nonzero
    assert closed_form_partial_conditions(inst(d, [0] * 4, [0, 0, 0, 2]))
    # second case: a2 = 0, a1 free below top
    assert closed_form_partial_conditions(inst(d, [1, 2, -1, 0], [0] * 4))
    # a[2,d-1] nonzero kills block invertibility
    assert not closed_form_partial_conditions(inst(d, [0] * 4, [0, 0, 1, 1]))
    # a[1,d] nonzero is excluded
    assert not closed_form_partial_conditions(inst(d, [0, 0, 0, 1], [0] * 4))


def test_specialized_jacobian_values():
    # d=3, a1[1] = 1, a2[3] = 1: direct substitution gives 1 - 7 z^6
    sj = specialized_jacobian(inst(3, [0, 1, 0, 0], [0, 0, 0, 1]))
    assert sj == P.one(1) - P.monomial((6,), 7)
    # d=2, a1[0] = 1, a2[2] = 1: the a1[0] term sits at exponent (d-1)(d+1) = 3
    sj2 = specialized_jacobian(inst(2, [1, 0, 0], [0, 0, 1]))
    assert sj2 == P.one(1) - P.monomial((3,), 4)
    # all a1 zero: constant 1
    assert specialized_jacobian(inst(3, [0] * 4, [0, 0, 0, 5])) == P.one(1)


def test_specialized_jacobian_precondition():
    with pytest.raises(ValueError):
        specialized_jacobian(inst(2, [0] * 3, [1, 0, 1]))


def test_closed_sum_matches_substitution(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            a1 = [Q(rng.randint(-3, 3)) for _ in range(d + 1)]
            a2 = [Q(0)] * d + [Q(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))]
            it = FamilyInstance(d, tuple(a1), tuple(a2))
            assert specialized_jacobian(it) == closed_sum_form(it)


def test_reference_template_deviates():
    it = inst(3, [0, 1, 0, 0], [0, 0, 0, 1])
    dev = reference_form_deviation(it)
    assert not dev["matches"]
    # template puts the k=1 term at exponent 2, substitution at exponent 6
    assert dev["template"].coefficient((2,)) == Q(-7)
    assert dev["truth"].coefficient((6,)) == Q(-7)
    assert dev["truth"].coefficient((2,)) == Q(0)


def test_separation_witnesses_all_degrees():
    for d in (2, 3, 4):
        partial_only, classical_only = separation_witnesses(d)
        Fp = family_system(partial_only)
        Fc = family_system(classical_only)
        assert is_jlin(Fp).verdict == NON_MEMBER
        assert is_jlin_partial(Fp, 1).verdict == MEMBER
        assert is_jlin(Fc).verdict == MEMBER
        assert is_jlin_partial(Fc, 1).verdict == NON_MEMBER


def test_first_family_restricted_inverse():
    # F = (z1, z2 - a z1^d): restricted inverse (y1, a y1^d)
    a = Q(Fraction(1, 2))
    it = inst(3, [0] * 4, [0, 0, 0, a])
    v = is_j_partial(family_system(it), 1)
    assert v.verdict == MEMBER
    assert list(v.witness.components) == [P.variable(0, 1), P.monomial((3,), a)]


def test_second_family_restricted_inverse_is_identity_slice():
    it = inst(3, [1, 2, 0, 0], [0] * 4)
    v = is_j_partial(family_system(it), 1)
    assert v.verdict == MEMBER
    assert v.witness.components[0] == P.variable(0, 1)


def test_equality_check_and_corpus():
    rep = corpus_report(2, 40, 7)
    assert rep["passed"], rep["equality_disagreements"]
    full = corpus_report(3, 60, seed=7)
    assert full["passed"]
    assert full["separation"]["partial_not_classical"]["is_jlin"] == NON_MEMBER
    assert full["separation"]["classical_not_partial"]["is_jlin"] == MEMBER
