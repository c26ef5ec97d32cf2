"""Exact Gaussian-rational arithmetic: numbers a + b*i with rational a, b.

A value is stored as three Python ints ``(a, b, d)``, meaning (a + b*i)/d,
with ``d > 0`` and ``gcd(a, b, d) == 1``.  That form is canonical, so two
values are equal exactly when their triples are, and zero is ``(0, 0, 1)``.
Every operation works on ints and restores the invariant with one
``math.gcd(a, b, d)`` (none when the result's denominator is 1).  The parts
are read as ``fractions.Fraction`` through the ``re`` and ``im`` properties.
Every operation is exact; division by zero raises, it never produces a value.

Outside this class, one function reads the raw triple: the polynomial product
kernel ``polyred.poly._add_product`` (behind ``Polynomial.mul`` and
``compose_many``).  It sums products as unnormalised triples and hands each
result back through ``Gaussian(a, b, d)``, which restores the canonical form.

Values are immutable and hashable, safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# Types that coerce to an exact rational; an arithmetic operator returns
# NotImplemented for any other operand, so a polynomial's reflected method runs.
_EXACT = (int, Fraction, str)


def _as_fraction(x) -> Fraction:
    if isinstance(x, _EXACT):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Gaussian:
    """A Gaussian rational (a + b*i)/d; ``re`` and ``im`` give a/d and b/d.

    ``Gaussian(re, im)`` takes ints, Fractions or 'p/q' strings.  With the
    third argument ``den``, a positive int, ``re`` and ``im`` must be ints and
    the value is (re + im*i)/den.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0, den=1):
        if type(re) is int and type(im) is int and type(den) is int and den > 0:
            if den != 1:
                g = gcd(re, im, den)
                if g != 1:
                    re //= g
                    im //= g
                    den //= g
            self._a = re
            self._b = im
            self._d = den
            return
        if type(den) is not int:
            raise TypeError(f"denominator must be an int, not {den!r}")
        if den <= 0:
            raise ValueError(f"denominator must be positive, not {den}")
        if den != 1:
            raise TypeError("a denominator needs int real and imaginary parts")
        re, im = _as_fraction(re), _as_fraction(im)
        # lcm of coprime-reduced denominators already makes gcd(a, b, d) == 1
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Gaussian":
        return x if isinstance(x, Gaussian) else Gaussian(x)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Gaussian):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = Gaussian(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return Gaussian(self._a + other._a, self._b + other._b, d1)
        return Gaussian(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if not isinstance(other, Gaussian):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = Gaussian(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return Gaussian(self._a - other._a, self._b - other._b, d1)
        return Gaussian(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return Gaussian.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Gaussian):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = Gaussian(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not b1:
            return Gaussian(a1 * a2, a1 * b2, self._d * other._d)
        if not b2:
            return Gaussian(a1 * a2, b1 * a2, self._d * other._d)
        return Gaussian(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "Gaussian":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return Gaussian(d * a, -d * b, norm)

    def __truediv__(self, other):
        if not isinstance(other, Gaussian):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = Gaussian(other)
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2) = d2 (a1 + b1 i)(a2 - b2 i) / (d1 (a2² + b2²))
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d2 = other._d
        return Gaussian(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), self._d * norm)

    def __rtruediv__(self, other):
        return Gaussian.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Gaussian(other)
        if not isinstance(other, Gaussian):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if not self._b:  # equal to an int or Fraction, so hash like it
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering --------------------------------------------------------

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        im_abs = abs(im)
        im_txt = "i" if im_abs == 1 else f"{im_abs}*i"
        sign = "-" if im < 0 else "+"
        if not re:
            return im_txt if im > 0 else f"-{im_txt}"
        return f"{re}{sign}{im_txt}"

    def __repr__(self):
        return f"Gaussian({self.re!r}, {self.im!r})"


ZERO = Gaussian(0)
ONE = Gaussian(1)
I = Gaussian(0, 1)


def Q(re, im=0) -> Gaussian:
    """Shorthand constructor; accepts ints, Fractions and 'p/q' strings."""
    return Gaussian(re, im)
