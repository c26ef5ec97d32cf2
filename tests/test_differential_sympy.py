"""Differential tests of polyred's exact arithmetic against sympy over QQ_I.

The degree-cut product and substitution are what the inversion loop in
:mod:`polyred.series` is built on; they are checked as the full sympy result
with the terms of too high degree in the variables from ``start`` on dropped.
Substitution is checked in batches, since ``compose_many`` shares its powers.
The product kernel sums on unnormalised int triples, so its tests also merge
sums over unequal denominators, force cancellations, and check that every
stored coefficient is nonzero and canonical.
"""

from hypothesis import given, settings, strategies as st
from sympy import I, Matrix, Poly, Rational, diff, expand, symbols, sympify

from polyred.gaussian import Gaussian
from polyred.poly import Polynomial, compose_many, det

NVARS = 2
GENS = symbols(f"z1:{NVARS + 1}")

coefficients = st.builds(
    Gaussian,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, -1, 2]),
)
# sparse entries: about half are zero, the rest have one to three terms
entries = st.one_of(
    st.just(Polynomial.zero(NVARS)),
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * NVARS), coefficients, min_size=1, max_size=3,
    ).map(lambda terms: Polynomial(NVARS, terms)),
)


polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS), coefficients, max_size=5,
).map(lambda terms: Polynomial(NVARS, terms))
# denominators up to 12 on both parts, so equal monomials meet with unequal denominators
wide_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS),
    st.builds(Gaussian, st.fractions(min_value=-3, max_value=3, max_denominator=12),
              st.fractions(min_value=-2, max_value=2, max_denominator=12)),
    max_size=6,
).map(lambda terms: Polynomial(NVARS, terms))
# degree cuts: (max_degree, start), or no cut
cuts = st.one_of(st.just((None, 0)), st.tuples(st.integers(0, 6), st.integers(0, NVARS - 1)))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


def to_sympy(p: Polynomial):
    out = 0
    for exps, c in p.terms.items():
        mono = 1
        for g, e in zip(GENS, exps):
            mono *= g ** e
        out += (Rational(c.re) + I * Rational(c.im)) * mono
    return out


def over_qq_i(expr) -> Poly:
    return Poly(expand(expr), *GENS, domain="QQ_I")


@settings(deadline=None)
@given(square_matrices())
def test_det_matches_sympy(rows):
    sym = Matrix([[to_sympy(p) for p in row] for row in rows])
    expected = over_qq_i(sym.det(method="berkowitz"))
    assert over_qq_i(to_sympy(det(rows, Polynomial.zero(NVARS)))) == expected


def cut(poly: Poly, max_degree, start) -> Poly:
    if max_degree is None:
        return poly
    kept = {m: c for m, c in poly.terms() if sum(m[start:]) <= max_degree}
    return Poly.from_dict(kept, *GENS, domain="QQ_I")


@given(polys, polys, cuts)
def test_mul_matches_sympy(p, q, degree_cut):
    max_degree, start = degree_cut
    expected = cut(over_qq_i(to_sympy(p) * to_sympy(q)), max_degree, start)
    assert over_qq_i(to_sympy(p.mul(q, max_degree, start))) == expected


@settings(deadline=None)
@given(st.lists(polys, min_size=1, max_size=3),
       st.lists(entries, min_size=NVARS, max_size=NVARS), cuts)
def test_compose_matches_sympy(ps, subs, degree_cut):
    # one batch shares its power cache, so each output is checked on its own
    max_degree, start = degree_cut
    images = dict(zip(GENS, map(to_sympy, subs)))
    got = compose_many(ps, subs, max_degree, start)
    assert len(got) == len(ps)
    for p, q in zip(ps, got):
        sym = sympify(to_sympy(p)).subs(images, simultaneous=True)
        assert over_qq_i(to_sympy(q)) == cut(over_qq_i(sym), max_degree, start)


@given(polys, st.integers(0, NVARS - 1))
def test_partial_matches_sympy(p, i):
    assert over_qq_i(to_sympy(p.partial(i))) == over_qq_i(diff(to_sympy(p), GENS[i]))


def assert_canonical(p: Polynomial):
    for c in p.terms.values():
        assert not c.is_zero()
        assert Gaussian(c.re, c.im) == c


@given(wide_polys, wide_polys, cuts)
def test_mul_merges_unequal_denominators(p, q, degree_cut):
    max_degree, start = degree_cut
    got = p.mul(q, max_degree, start)
    assert_canonical(got)
    expected = cut(over_qq_i(to_sympy(p) * to_sympy(q)), max_degree, start)
    assert over_qq_i(to_sympy(got)) == expected


@given(wide_polys, wide_polys, cuts)
def test_mul_cancels_exactly(p, q, degree_cut):
    # (p + q)(p - q) = p*p - q*q: the cross terms p*q and -q*p cancel in every sum
    max_degree, start = degree_cut
    got = (p + q).mul(p - q, max_degree, start)
    assert_canonical(got)
    assert got == p.mul(p, max_degree, start) - q.mul(q, max_degree, start)
    expected = cut(over_qq_i(to_sympy(p) ** 2 - to_sympy(q) ** 2), max_degree, start)
    assert over_qq_i(to_sympy(got)) == expected
    assert (p - p).mul(q).terms == {}
