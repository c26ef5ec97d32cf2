from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from polyred.couplings import CouplingTensor
from polyred.gaussian import Gaussian, Q
from polyred.poly import Polynomial, PolySystem
from polyred.samples import random_couplings
from polyred.series import (
    GradedPoly,
    compose_poly,
    enumerate_trees,
    formal_inverse_fixed_point,
    inversion_defect,
    log_partition_function,
    theta_homogeneity_check,
    tree_amplitude,
    tree_oracle_inverse,
    z_det_identity_check,
)

P = Polynomial


def catalan(r):
    return comb(2 * r, r) // (r + 1)


W_CATALAN = CouplingTensor(1, 2, {(2, 0, (0, 0)): Q(1)})


def test_fixed_point_catalan_grades():
    # Independent oracle: one-variable series reversion gives Catalan numbers.
    G = formal_inverse_fixed_point(W_CATALAN, 5)
    for r in range(6):
        assert G[0].grade(r) == P.monomial((r + 1,), catalan(r))


def test_fixed_point_zero_couplings():
    w = CouplingTensor(2, 3)
    G = formal_inverse_fixed_point(w, 4)
    for i in range(2):
        assert G[i].grade(0) == P.variable(i, 2)
        for r in range(1, 5):
            assert G[i].grade(r).is_zero()


def test_fixed_point_terminates_on_triangular():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    w = CouplingTensor.from_system(PolySystem([z1 - z2 * z2, z2]))
    G = formal_inverse_fixed_point(w, 5)
    assert G[0].grade(1) == P.monomial((0, 2), 1)
    assert G[1].grade(0) == z2
    for r in range(2, 6):
        assert G[0].grade(r).is_zero()
        assert G[1].grade(r).is_zero()


def test_defect_vanishes(rng):
    for _ in range(10):
        w = random_couplings(rng, rng.choice((1, 2)), rng.choice((2, 3, 4)))
        G = formal_inverse_fixed_point(w, 5)
        assert inversion_defect(w, G).is_zero()


def test_tree_counts():
    def count(d, weight):
        return sum(1 for t in enumerate_trees(d, weight) if t.theta_weight == weight)

    assert count(2, 1) == 1
    assert count(2, 2) == 2            # one extra vertex in either child slot
    assert count(3, 1) == 1
    assert count(3, 2) == 3            # one ternary vertex, or stacked binaries x2
    assert sum(1 for _ in enumerate_trees(3, 2)) == 4
    # binary plane trees of weight r are counted by Catalan numbers
    for r in range(1, 6):
        assert count(2, r) == catalan(r)


def test_tree_validation():
    with pytest.raises(ValueError):
        list(enumerate_trees(1, 2))
    with pytest.raises(ValueError):
        list(enumerate_trees(2, 0))


def test_single_vertex_amplitude():
    tree = next(iter(enumerate_trees(2, 1)))
    amp = tree_amplitude(tree, W_CATALAN)
    assert amp[0] == P.monomial((2,), 1)


def test_stacked_binary_amplitudes_sum():
    trees = [t for t in enumerate_trees(2, 2) if t.theta_weight == 2]
    acc = P.zero(1)
    for t in trees:
        a = tree_amplitude(t, W_CATALAN)[0]
        assert a == P.monomial((3,), 1)
        acc = acc + a
    assert acc == P.monomial((3,), 2)  # matches the grade-2 Catalan coefficient


def test_amplitude_contracts_mixed_indices():
    # one binary vertex, n = 2, coupling monomial u1*u2 with coefficient 3:
    # the contraction must reproduce exactly 3*u1*u2.
    w = CouplingTensor(2, 2, {(2, 0, (0, 1)): Q(3)})
    tree = next(iter(enumerate_trees(2, 1)))
    amp = tree_amplitude(tree, w)
    assert amp[0] == P.monomial((1, 1), 3)
    assert amp[1].is_zero()


def test_oracle_equals_fixed_point(rng):
    assert tree_oracle_inverse(W_CATALAN, 5) == formal_inverse_fixed_point(W_CATALAN, 5)
    for _ in range(6):
        n, d = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3), (2, 4)))
        w = random_couplings(rng, n, d)
        assert tree_oracle_inverse(w, 4) == formal_inverse_fixed_point(w, 4)


def test_log_partition_low_grades():
    # F = u - w u^2: ln Z = -ln(1 - 2 w G) = 2w u + 4 w^2 u^2 + ... (here w = 1)
    lnZ = log_partition_function(W_CATALAN, 3)
    assert lnZ.grade(0).is_zero()
    assert lnZ.grade(1) == P.monomial((1,), 2)
    assert lnZ.grade(2) == P.monomial((2,), 4)
    # F = u - w u^3, w = 1: the first contribution is 3 u^2 at grade 2.
    w3 = CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): Q(1)})
    lnZ3 = log_partition_function(w3, 4)
    assert lnZ3.grade(1).is_zero()
    assert lnZ3.grade(2) == P.monomial((2,), 3)


def test_z_det_identity(rng):
    ok, _ = z_det_identity_check(W_CATALAN, 5)
    assert ok
    for _ in range(6):
        w = random_couplings(rng, rng.choice((1, 2)), rng.choice((2, 3)))
        ok, residual = z_det_identity_check(w, 4)
        assert ok, residual


def test_zero_couplings_partition():
    w = CouplingTensor(2, 2)
    lnZ = log_partition_function(w, 3)
    assert all(lnZ.grade(r).is_zero() for r in range(4))
    ok, _ = z_det_identity_check(w, 3)
    assert ok


def test_theta_homogeneity():
    assert theta_homogeneity_check(W_CATALAN, 4, Q(1))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(2))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(Fraction(3, 2)))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(-1))
    with pytest.raises(ValueError):
        theta_homogeneity_check(W_CATALAN, 3, Q(0))


def test_theta_homogeneity_random(rng):
    for _ in range(4):
        w = random_couplings(rng, 2, rng.choice((2, 3)))
        assert theta_homogeneity_check(w, 4, Q(Fraction(3, 2)))


def test_graded_poly_arithmetic():
    a = GradedPoly.of_poly(P.variable(0, 1), 3, grade=1)
    b = GradedPoly.of_poly(P.one(1), 3, grade=0)
    prod = a * (a + b)
    assert prod.grade(1) == P.variable(0, 1)
    assert prod.grade(2) == P.monomial((2,), 1)
    assert prod.grade(3).is_zero()
    assert a.shift(2).grade(3) == P.variable(0, 1)
    with pytest.raises(ValueError):
        b.exp()  # nonzero grade-0 part
    e = a.exp()
    assert e.grade(0) == P.one(1)
    assert e.grade(2) == P.monomial((2,), Q("1/2"))


# -- GradedPoly against a grade-list reference ----------------------------------
# The reference keeps one Polynomial per grade 0..order and multiplies by
# convolution, independently of the theta-variable storage under test.


def ref_mul(a, b, order):
    out = [P.zero(a[0].nvars) for _ in range(order + 1)]
    for r1, p1 in enumerate(a):
        for r2, p2 in enumerate(b):
            if r1 + r2 <= order:
                out[r1 + r2] = out[r1 + r2] + p1 * p2
    return out


def ref_exp(a, order):
    out = [P.one(a[0].nvars)] + [P.zero(a[0].nvars)] * order
    power = list(out)
    for m in range(1, order + 1):
        power = ref_mul(power, a, order)
        out = [o + p.scale(Q(Fraction(1, factorial(m)))) for o, p in zip(out, power)]
    return out


def ref_compose(p, args, order):
    nv = args[0][0].nvars
    out = [P.zero(nv) for _ in range(order + 1)]
    for exps, c in p.terms.items():
        term = [P.constant(c, nv)] + [P.zero(nv)] * order
        for i, e in enumerate(exps):
            for _ in range(e):
                term = ref_mul(term, args[i], order)
        out = [o + t for o, t in zip(out, term)]
    return out


def of_parts(parts, order):
    acc = GradedPoly.zero(order, parts[0].nvars)
    for r, p in enumerate(parts):
        acc = acc + GradedPoly.of_poly(p, order, grade=r)
    return acc


complex_coeff = st.builds(Gaussian, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))


def ring_polys(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), complex_coeff,
                           max_size=3).map(lambda terms: P(nvars, terms))


@st.composite
def graded_case(draw, count=2, zero_grade0=False):
    """(order, nvars, [grade lists]): ``count`` series in one ring and order."""
    order, nvars = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    series = []
    for _ in range(count):
        parts = [draw(ring_polys(nvars)) for _ in range(order + 1)]
        if zero_grade0:
            parts[0] = P.zero(nvars)
        series.append(parts)
    return order, nvars, series


@given(graded_case())
def test_graded_poly_matches_grade_lists(case):
    order, nvars, (a, b) = case
    ga, gb = of_parts(a, order), of_parts(b, order)
    assert ga.parts == a and ga.grade(order + 1).is_zero()
    assert (ga * gb).parts == ref_mul(a, b, order)
    assert (ga - gb).parts == [x - y for x, y in zip(a, b)]
    nonzero = [r for r, p in enumerate(a) if not p.is_zero()]
    assert ga.min_grade() == (nonzero[0] if nonzero else None)
    assert ga.is_zero() == (not nonzero)
    assert (ga == gb) == (a == b)
    for k in range(order + 2):
        assert ga.shift(k).parts == [P.zero(nvars)] * min(k, order + 1) + a[:order + 1 - k]


@given(graded_case(count=1, zero_grade0=True))
def test_graded_poly_exp_matches_grade_lists(case):
    order, _, (a,) = case
    assert of_parts(a, order).exp().parts == ref_exp(a, order)


@given(graded_case(), st.data())
def test_compose_poly_matches_grade_lists(case, data):
    order, _, args = case
    p = data.draw(ring_polys(len(args)))
    got = compose_poly(p, [of_parts(a, order) for a in args], order)
    assert got.parts == ref_compose(p, args, order)


@given(ring_polys(2), st.integers(0, 3), st.integers(0, 5))
def test_graded_poly_of_poly_places_one_grade(p, order, grade):
    g = GradedPoly.of_poly(p, order, grade)
    for r in range(order + 2):
        assert g.grade(r) == (p if r == grade <= order else P.zero(2))
