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
from sympy import I, Matrix, Poly, Rational, cancel, diff, expand, symbols, sympify

from polyred.gaussian import Gaussian
from polyred.poly import Polynomial, compose_many, det
from polyred.series import GradedPoly, truncated_block_inverse

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


def to_sympy(p: Polynomial, gens=GENS):
    out = 0
    for exps, c in p.terms.items():
        mono = 1
        for g, e in zip(gens, exps, strict=True):
            mono *= g ** e
        out += (Rational(c.re) + I * Rational(c.im)) * mono
    return out


def over_qq_i(expr) -> Poly:
    return Poly(expand(expr), *GENS, domain="QQ_I")


def sparse(rows):
    return [{j: a for j, a in enumerate(row) if not a.is_zero()} for row in rows]


@settings(deadline=None)
@given(square_matrices())
def test_det_matches_sympy(rows):
    sym = Matrix([[to_sympy(p) for p in row] for row in rows])
    expected = over_qq_i(sym.det(method="berkowitz"))
    assert over_qq_i(to_sympy(det(sparse(rows), Polynomial.zero(NVARS)))) == expected


def test_unit_pivot_det_matches_sympy(pivot_matrices):
    # a graded entry is one polynomial in (z, theta), cut above its order in theta
    for label, rows, zero, _ in pivot_matrices:
        graded = isinstance(zero, GradedPoly)
        value = (lambda e: to_sympy(e.poly)) if graded else to_sympy
        sym = Matrix([[value(e) for e in row] for row in rows])
        expected = over_qq_i(sym.det(method="berkowitz"))
        if graded:
            expected = cut(expected, zero.order, 1)
        assert over_qq_i(value(det(sparse(rows), zero))) == expected, label


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


@st.composite
def unimodular_affine_blocks(draw):
    """(nb, M, b0): M(z1) a product of a constant diagonal and random shears whose
    multipliers are polynomials in z1, so det M is a nonzero constant; b0 in z1."""
    nb = draw(st.integers(2, 4))
    nv = nb + 1
    in_z1 = st.dictionaries(st.tuples(st.integers(0, 2)), coefficients, max_size=2).map(
        lambda terms: Polynomial(nv, {e + (0,) * nb: c for e, c in terms.items()}))
    diagonal = draw(st.lists(coefficients.filter(lambda c: not c.is_zero()),
                             min_size=nb, max_size=nb))
    M = [[Polynomial.constant(diagonal[i], nv) if i == j else Polynomial.zero(nv)
          for j in range(nb)] for i in range(nb)]
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.permutations(range(nb)))[:2]
        m = draw(in_z1)
        M[a] = [x + m * y for x, y in zip(M[a], M[b])]
    return nb, M, [draw(in_z1) for _ in range(nb)]


@settings(deadline=None, max_examples=40)
@given(unimodular_affine_blocks(), st.sampled_from([1, 2]))
def test_affine_block_inverse_matches_sympy(block, cap):
    # R_j = sum_i M[j][i] z_(1+i) + b0_j, so the block Jacobian is M transposed
    # and Cramer's rule runs on it; sympy inverts M itself
    nb, M, b0 = block
    nv = nb + 1
    gens = symbols(f"z1:{nv + 1}")
    z = [Polynomial.variable(1 + i, nv) for i in range(nb)]
    R = [sum((M[j][i] * z[i] for i in range(nb)), b0[j]) for j in range(nb)]
    Q, P, exact, _ = truncated_block_inverse(R, nv, 1, cap)
    assert exact and Q == z
    target = Matrix([g - to_sympy(b, gens) for g, b in zip(gens[1:], b0)])
    expected = Matrix([[to_sympy(e, gens) for e in row] for row in M]).inv() * target
    for p, e in zip(P, expected):
        assert cancel(to_sympy(p, gens) - e) == 0
