from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from polyred.gaussian import Gaussian, I, ONE, Q, ZERO


def test_construction_and_lowest_terms():
    x = Q("2/4", "-6/4")
    assert x.re == Fraction(1, 2) and x.im == Fraction(-3, 2)
    assert x.re.denominator > 0


def test_field_ops():
    a = Q(1, 2)
    b = Q("1/2", -1)
    assert a + b == Q("3/2", 1)
    assert a - b == Q("1/2", 3)
    assert a * b == Q("5/2", 0)          # (1+2i)(1/2 - i) = 1/2 - i + i - 2i^2
    assert a / a == ONE
    assert (a * b) / b == a
    assert -a == Q(-1, -2)
    assert I * I == Q(-1)


def test_pow():
    assert Q(0, 1) ** 4 == ONE
    assert Q(2) ** -2 == Q("1/4")
    assert Q(1, 1) ** 2 == Q(0, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_comparison_and_hash():
    assert Q(3) == 3
    assert Q(3, 0) == Fraction(3)
    assert Q(1, 1) != Q(1, -1)
    assert hash(Q("2/4")) == hash(Q("1/2"))
    assert hash(Q(3)) == hash(3) and hash(Q("1/2")) == hash(Fraction(1, 2))
    assert {Q(3): "three"}[3] == "three"
    assert bool(ZERO) is False and bool(I) is True


def test_str_forms():
    assert str(Q(1)) == "1"
    assert str(Q(0, 1)) == "i"
    assert str(Q(0, -1)) == "-i"
    assert str(Q("1/2", "-3/2")) == "1/2-3/2*i"
    assert str(Q(-1, 1)) == "-1+i"


# -- differential test against an independent (Fraction, Fraction) reference --

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, x)
    return ref_inverse(out) if n < 0 else out


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    im_txt = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if not re:
        return im_txt if im > 0 else f"-{im_txt}"
    return f"{re}{'-' if im < 0 else '+'}{im_txt}"


def check(g, x):
    """``g`` is canonical and holds the reference value ``x``."""
    a, b, d = g._a, g._b, g._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (g.re, g.im) == x
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert str(g) == ref_str(x)
    assert g == Gaussian(*x) and hash(g) == hash(Gaussian(*x))
    assert g.is_zero() == (x == (0, 0)) and (g.im == 0) == (x[1] == 0)
    return g


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))
pairs = st.one_of(
    st.tuples(rationals, rationals),                   # complex
    st.tuples(rationals, st.just(Fraction(0))),        # real
    st.tuples(st.just(Fraction(0)), rationals),        # imaginary
)
scalars = st.one_of(st.integers(-9, 9), rationals)


def routes(x):
    """The same value built four ways: from Fractions, strings, and int triples."""
    re, im = x
    d = re.denominator * im.denominator
    a, b = int(re * d), int(im * d)
    return [Gaussian(re, im), Gaussian(str(re), str(im)), Gaussian(a, b, d),
            Gaussian(3 * a, 3 * b, 3 * d)]


@settings(max_examples=300)
@given(pairs, pairs, scalars, st.integers(-4, 5))
def test_matches_fraction_pair_reference(x, y, s, n):
    gx, gy = check(Gaussian(*x), x), check(Gaussian(*y), y)
    s_pair = (Fraction(s), Fraction(0))
    for g in routes(x):
        check(g, x)
        assert g == gx and hash(g) == hash(gx)
    check(gx + gy, ref_add(x, y))
    check(gx - gy, ref_sub(x, y))
    check(gx * gy, ref_mul(x, y))
    check(-gx, (-x[0], -x[1]))
    check(gx + s, ref_add(x, s_pair))
    check(s + gx, ref_add(x, s_pair))
    check(gx - s, ref_sub(x, s_pair))
    check(s - gx, ref_sub(s_pair, x))
    check(gx * s, ref_mul(x, s_pair))
    check(s * gx, ref_mul(x, s_pair))
    # different routes to one value compare and hash equal
    for g in ((gx + gy) - gy, gy + gx - gy, (gx * 2) / 2):
        assert check(g, x) == gx and hash(g) == hash(gx)
    if x[1] == 0:
        assert gx == x[0] and Gaussian(x[0]) == gx and hash(gx) == hash(x[0])
    if n >= 0 or x != (0, 0):
        check(gx ** n, ref_pow(x, n))
    if y != (0, 0):
        check(gy.inverse(), ref_inverse(y))
        check(gx / gy, ref_mul(x, ref_inverse(y)))
        assert check(gx / gy * gy, x) == gx
    else:
        with pytest.raises(ZeroDivisionError):
            gy.inverse()
        with pytest.raises(ZeroDivisionError):
            gx / gy
    if x != (0, 0):
        check(s / gx, ref_mul(s_pair, ref_inverse(x)))
    if s:
        check(gx / s, ref_mul(x, ref_inverse(s_pair)))


@pytest.mark.parametrize("den, error", [
    (0, ValueError), (-3, ValueError), (1.0, TypeError), (2.0, TypeError), (True, TypeError),
    (Fraction(2), TypeError), ("2", TypeError), (None, TypeError)])
def test_rejects_a_denominator_that_is_not_a_positive_int(den, error):
    with pytest.raises(error):
        Gaussian(1, 2, den)


@pytest.mark.parametrize("args", [(Fraction(1, 2), 0, 3), ("1", 0, 2), (1, Fraction(1, 3), 2)])
def test_denominator_needs_int_parts(args):
    with pytest.raises(TypeError):
        Gaussian(*args)


@pytest.mark.parametrize("bad", [0.5, 1.0, complex(1, 1), None])
def test_rejects_floats_and_other_types(bad):
    for build in (Gaussian, lambda v: Gaussian(1, v), Gaussian.coerce, Q,
                  lambda v: ONE + v, lambda v: ONE * v):
        with pytest.raises(TypeError):
            build(bad)
