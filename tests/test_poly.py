import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyred.gaussian import Q
from polyred.poly import Polynomial, PolySystem, compose_many, exact_div, grlex_key

P = Polynomial


def z(i, n=2):
    return P.variable(i, n)


small_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, nvars=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        if sum(exps) <= max_deg:
            c = draw(small_coeff)
            if c:
                terms[exps] = Q(c)
    return P(nvars, terms)


def test_canonical_sparse_form():
    p = P(2, {(1, 0): Q(0), (0, 1): Q(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == Q(2)
    assert (z(0) - z(0)).is_zero()


def test_ring_mismatch_errors():
    with pytest.raises(ValueError):
        z(0, 2) + z(0, 3)
    with pytest.raises(ValueError):
        z(0, 2) * z(0, 3)


def test_fraction_scalars_act_as_constants():
    half = Fraction(1, 2)
    p = z(0) + z(1)
    assert p * half == P(2, {(1, 0): Q(half), (0, 1): Q(half)})
    assert half * p == p * half
    assert p + half == p + P.constant(Q(half), 2)
    assert half + p == p + half
    assert p - half == p + Fraction(-1, 2)
    assert half - p == P.constant(half, 2) - p
    assert P.constant(half, 1) == half
    assert P.constant(half, 1) != Fraction(1, 3)
    assert P.zero(1) == Fraction(0)


def test_gaussian_scalars_act_as_constants_on_either_side():
    # Gaussian's own operators defer to the polynomial's reflected ones
    two = Q(2)
    p = z(0) + z(1)
    assert two * p == p * two == p.scale(two)
    assert two + p == p + two == p + P.constant(two, 2)
    assert two - p == P.constant(two, 2) - p


@pytest.mark.parametrize("other", ["x", 1.5, None, [1]])
def test_non_ring_operands_raise_type_error(other):
    p = z(0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)
    assert p != other


def test_simple_products():
    assert z(0) * z(1) == P.monomial((1, 1), 1)
    assert (z(0) - z(1)) * (z(0) + z(1)) == P.monomial((2, 0), 1) - P.monomial((0, 2), 1)


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * P.one(2) == a
    assert (a + (-a)).is_zero()


@given(polys(), polys())
def test_degree_additivity(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree() == a.degree() + b.degree()


def test_compose_examples():
    # square of a sum
    p = P.monomial((2,), 1, nvars=1)
    s = z(0) + z(1)
    assert p.compose([s]) == P(2, {(2, 0): Q(1), (1, 1): Q(2), (0, 2): Q(1)})
    # identity substitution
    q = z(0) * z(1) - z(1)
    assert q.compose([z(0), z(1)]) == q
    # p = t - t^3 at t = u + u^3, expanded by hand:
    # (u + u^3)^3 = u^3 + 3u^5 + 3u^7 + u^9
    p = P(1, {(1,): Q(1), (3,): Q(-1)})
    u = P.variable(0, 1)
    expanded = u - P.monomial((5,), 3) - P.monomial((7,), 3) - P.monomial((9,), 1)
    assert p.compose([u + u ** 3]) == expanded


def test_compose_arity_error():
    with pytest.raises(ValueError):
        z(0).compose([z(0, 3)])


def test_compose_associativity(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        def rnd(nv):
            terms = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 1) for _ in range(nv))
                if sum(e) <= 3:
                    terms[e] = Q(rng.randint(-2, 2))
            return P(nv, terms)
        p = rnd(n)
        f = [rnd(n) for _ in range(n)]
        g = [rnd(n) for _ in range(n)]
        fg = [fi.compose(g) for fi in f]
        assert p.compose(f).compose(g) == p.compose(fg)


def test_partial_derivative():
    assert (z(0) ** 2 * z(1)).partial(0) == P.monomial((1, 1), 2)
    assert (z(0) ** 3).partial(1).is_zero()
    p = z(0) - P.monomial((1, 2), 3)
    assert p.partial(0) == P.one(2) - P.monomial((0, 2), 3)
    with pytest.raises(IndexError):
        z(0).partial(2)


def test_homogeneous_parts():
    p = P.one(2) + z(0) + z(0) * z(1)
    assert p.homogeneous_part(2) == z(0) * z(1)
    assert (z(0) ** 3).homogeneous_part(2).is_zero()
    total = P.zero(2)
    for c in range(p.degree() + 1):
        total = total + p.homogeneous_part(c)
    assert total == p


def test_homogeneous_parts_from_a_start_variable():
    # degree counted in z2, z3 only: z1 is a parameter
    q = z(0, 3) ** 2 + z(0, 3) * z(1, 3) + z(2, 3) - z(1, 3) * z(2, 3) + P.one(3)
    assert q.homogeneous_part(0, 1) == z(0, 3) ** 2 + P.one(3)
    assert q.homogeneous_part(1, 1) == z(0, 3) * z(1, 3) + z(2, 3)
    assert q.homogeneous_part(2, 1) == -(z(1, 3) * z(2, 3))
    assert q.homogeneous_part(3, 1).is_zero()
    assert q.homogeneous_part(0, 3) == q
    assert q.homogeneous_part(2) == q.homogeneous_part(2, 0)


@given(polys(nvars=3))
def test_euler_identity(p):
    # for homogeneous A of degree d >= 1: sum_i x_i dA/dx_i = d * A
    for d in range(1, max(p.degree(), 0) + 1):
        A = p.homogeneous_part(d)
        acc = P.zero(3)
        for i in range(3):
            acc = acc + P.variable(i, 3) * A.partial(i)
        assert acc == A.scale(d)


def test_grlex_order():
    p = P(2, {(2, 0): Q(1), (1, 1): Q(1), (0, 2): Q(1), (0, 0): Q(1), (1, 0): Q(1)})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 0)]
    assert grlex_key((1, 1)) < grlex_key((2, 0))


def test_exact_div():
    num = (z(0) - z(1)) * (z(0) + z(1))
    assert exact_div(num, z(0) - z(1)) == z(0) + z(1)
    with pytest.raises(ArithmeticError):
        exact_div(z(0) * z(0) + P.one(2), z(0))
    with pytest.raises(ZeroDivisionError):
        exact_div(z(0), P.zero(2))


def test_scale_vars():
    p = z(0) ** 2 - z(1)
    assert p.scale_vars([Q(2), Q(4)]) == P.monomial((2, 0), 4) - P.monomial((0, 1), 4)


def test_lift_restrict():
    p = z(0) * z(1)
    lifted = p.lift(4, offset=1)
    assert lifted == P.monomial((0, 1, 1, 0), 1)
    assert lifted.restrict(3) == P.monomial((0, 1, 1), 1)
    with pytest.raises(ValueError):
        lifted.restrict(2)


def test_mul_truncated_by_block_degree():
    p = P.monomial((1, 1), 1) + P.monomial((2, 0), 1)
    q = P.monomial((0, 2), 1) + P.monomial((1, 0), 1)
    # degree counted from variable 1 on: z1^2*z2^0 * z2^2 has block degree 2
    assert p.mul(q, 1, 1) == P.monomial((2, 1), 1) + P.monomial((3, 0), 1)
    assert p.mul(q, 2, 1) == p * q - P.monomial((1, 3), 1)
    # start 0 counts the total degree
    assert p.mul(q, 3) == P.monomial((2, 1), 1) + P.monomial((3, 0), 1)
    assert p.mul(q, 2) == P.zero(2)


def test_zero_variable_ring():
    c = P.constant(Q(5), 0)
    assert c.degree() == 0
    assert (c * c).constant_term() == Q(25)


def test_system_basics():
    F = PolySystem([z(0) + z(1), z(1)])
    G = PolySystem([z(0) * z(1), z(1)])
    assert F.after(G).components[0] == z(0) * z(1) + z(1)
    assert PolySystem.identity(2).is_square()
    with pytest.raises(ValueError):
        PolySystem([z(0) ** 3], nvars=2, degree_bound=2)
    with pytest.raises(ValueError):
        PolySystem([], )


def test_compose_many_cancelling_batch_stores_no_zero():
    s = P.variable(0, 1)
    third = Fraction(1, 3)
    batch = [z(0) - z(1), z(0) ** 2 - z(0) * z(1),
             P(2, {(1, 0): Q(third), (0, 1): Q(-third)}) * (z(0) + z(1))]
    for max_degree in (None, 1, 3):
        out = compose_many(batch, [s + Q(0, 1), s + Q(0, 1)], max_degree)
        assert all(r.is_zero() and r.terms == {} for r in out)
    # a partial cancellation keeps only the nonzero sums
    [r] = compose_many([z(0) ** 2 - z(1) ** 2 + z(0)], [s + 1, s - 1])
    assert r == 5 * s + 1 and (2,) not in r.terms
    assert all(not c.is_zero() for c in r.terms.values())


def test_compose_many_keeps_constant_under_cut():
    c = Q(Fraction(3, 2), -1)
    s = P.variable(0, 1)
    for max_degree in (0, 1, 2):
        assert compose_many([P.constant(c, 2)], [s, s], max_degree) == [P.constant(c, 1)]
        assert compose_many([P.constant(c, 2) + z(0) ** 3], [s, s], max_degree) == \
            [P.constant(c, 1)]
    assert compose_many([P.constant(c, 2)], [s, s], 0, 1) == [P.constant(c, 1)]
