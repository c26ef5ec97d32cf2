"""Differential tests of polyred's exact arithmetic against sympy over QQ_I."""

from hypothesis import given, settings, strategies as st
from sympy import I, Matrix, Poly, Rational, expand, symbols

from polyred.gaussian import Gaussian
from polyred.poly import Polynomial, det

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
