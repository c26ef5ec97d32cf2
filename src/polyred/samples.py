"""Seeded generators of test systems: random corpora and curated instances.

Everything here is deterministic given the seed; reports echo the seed so
corpus runs can be reproduced bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .couplings import CouplingTensor, tuple_of_exps
from .poly import Polynomial, PolySystem

_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
         Fraction(-1, 2), Fraction(2), Fraction(-2)]


def random_rational(rng: random.Random, dense: bool = False) -> Fraction:
    if dense:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.choice(_POOL)


def random_poly(rng: random.Random, nvars: int, degrees, density: float,
                dense: bool | None = None) -> Polynomial:
    """Keep each monomial of the given degrees with probability ``density``.

    A kept monomial gets a :func:`random_rational` coefficient, dense with
    probability 0.3 when ``dense`` is None; the monomials are visited degree
    by degree in ``combinations_with_replacement`` order.
    """
    terms = {}
    for deg in degrees:
        for vs in combinations_with_replacement(range(nvars), deg):
            if rng.random() < density:
                c = random_rational(rng, rng.random() < 0.3 if dense is None else dense)
                terms[tuple(vs.count(v) for v in range(nvars))] = c
    return Polynomial(nvars, terms)


def random_couplings(rng: random.Random, n: int, d: int,
                     quadratic_free: bool = False, density: float = 0.5) -> CouplingTensor:
    """Random normalized-system couplings, drawn degree by degree and component by component."""
    entries = {}
    for k in range(3 if quadratic_free else 2, d + 1):
        for i in range(n):
            for exps, c in random_poly(rng, n, [k], density).terms.items():
                entries[(k, i, tuple_of_exps(exps))] = c
    return CouplingTensor(n, d, entries)


def random_normalized_system(rng: random.Random, n: int, d: int,
                             quadratic_free: bool = False) -> PolySystem:
    return random_couplings(rng, n, d, quadratic_free).to_system(d)


def random_zero_constant_system(rng: random.Random, n: int, d: int) -> PolySystem:
    """Random square system with F(0) = 0 but arbitrary linear part."""
    comps = [random_poly(rng, n, range(1, d + 1), 0.35) for _ in range(n)]
    return PolySystem(comps, nvars=n, degree_bound=d)


def curated_invertible_pairs(d_max: int = 4) -> list[tuple[PolySystem, PolySystem]]:
    """(system, known exact inverse) pairs on two variables, degrees <= d_max.

    Shears along one variable, their compositions, and rank-one shears
    z - v * l(z)^d with l(v) = 0 (inverse y + v * l(y)^d).
    """
    n = 2
    z1, z2 = (Polynomial.variable(i, n) for i in range(n))
    y1, y2 = z1, z2
    out: list[tuple[PolySystem, PolySystem]] = []

    def shear1(p):  # (z1 + p(z2), z2)
        return (PolySystem([z1 + p, z2], degree_bound=max(p.degree(), 1)),
                PolySystem([y1 - p, y2]))

    ps = [
        Polynomial(n, {(0, 2): 1}),               # z2^2
        Polynomial(n, {(0, 3): -1}),              # -z2^3
        Polynomial(n, {(0, 2): Fraction(1, 2), (0, 3): 1}),
        Polynomial(n, {(0, 4): 2}),
        Polynomial(n, {(0, 1): 3, (0, 2): -1}),
    ]
    for p in ps:
        out.append(shear1(p))
    qs = [
        Polynomial(n, {(2, 0): 1}),               # z1^2
        Polynomial(n, {(3, 0): -2}),
        Polynomial(n, {(1, 0): -1, (2, 0): Fraction(1, 3)}),
    ]
    for q in qs:  # (z1, z2 + q(z1))
        out.append((PolySystem([z1, z2 + q], degree_bound=max(q.degree(), 1)),
                    PolySystem([y1, y2 - q])))
    # Compositions of two shears: F = E2 o E1, inverse = E1inv o E2inv.
    for p, q in [(ps[0], qs[0]), (ps[1], qs[0]), (ps[0], qs[1])]:
        E1, E1i = shear1(p)
        E2 = PolySystem([z1, z2 + q])
        E2i = PolySystem([y1, y2 - q])
        F = E2.after(E1)
        Finv = E1i.after(E2i)
        out.append((PolySystem(list(F.components), nvars=n,
                               degree_bound=max(F.degree(), 1)), Finv))
    # Rank-one shears z - v l(z)^d, l = z1 + z2, v = (1, -1).
    for d in range(2, d_max + 1):
        l_pow = (z1 + z2) ** d
        F = PolySystem([z1 - l_pow, z2 + l_pow], degree_bound=d)
        Finv = PolySystem([y1 + l_pow, y2 - l_pow])
        out.append((F, Finv))
    # Mixed-linear-part shear: (2 z1 + z2^2, z2) with inverse ((y1 - y2^2)/2, y2).
    out.append((PolySystem([z1.scale(2) + Polynomial(n, {(0, 2): 1}), z2]),
                PolySystem([(y1 - Polynomial(n, {(0, 2): 1})).scale(Fraction(1, 2)), y2])))
    # Identity padded to higher declared degree.
    out.append((PolySystem([z1, z2], degree_bound=3), PolySystem([y1, y2])))
    # Composition with the rank-one shear.
    l2 = (z1 + z2) ** 2
    R1 = PolySystem([z1 - l2, z2 + l2])
    R1i = PolySystem([y1 + l2, y2 - l2])
    E, Ei = shear1(ps[0])
    F = R1.after(E)
    out.append((PolySystem(list(F.components), nvars=n, degree_bound=max(F.degree(), 1)),
                Ei.after(R1i)))
    # Rank-one shears along l = z1 - z2 with v = (1, 1).
    for d in (2, 3):
        m_pow = (z1 - z2) ** d
        out.append((PolySystem([z1 - m_pow, z2 - m_pow], degree_bound=d),
                    PolySystem([y1 + m_pow, y2 + m_pow])))
    out.append(shear1(Polynomial(n, {(0, 4): Fraction(1, 3)})))
    return out


def curated_non_invertible(count: int = 20) -> list[PolySystem]:
    """Systems with F(0) = 0 and no polynomial inverse (various failure modes)."""
    n = 2
    z1, z2 = (Polynomial.variable(i, n) for i in range(n))
    base = [
        PolySystem([z1 - z1 * z1, z2], degree_bound=2),
        PolySystem([z1 - z1 * z1 * z1, z2], degree_bound=3),
        PolySystem([z1 - z2 * z2, z2 - z1 * z1], degree_bound=2),
        PolySystem([z1 - z1 * z2, z2 - z1 * z2], degree_bound=2),
        PolySystem([z1 * z1, z2], degree_bound=2),                    # singular linear part
        PolySystem([z1 + z2, z1 + z2 + z1 * z1 * z1], degree_bound=3),  # singular linear part
        PolySystem([z1 - z2 * z2 * z2, z2 - z1 * z1], degree_bound=3),
        PolySystem([z1 - (z1 + z2) ** 2, z2], degree_bound=2),
        PolySystem([z1 - (z1 * z2), z2 - z2 * z2], degree_bound=2),
        PolySystem([z1 - z2 * z2, z2 - z2 * z2 * z2], degree_bound=3),
    ]
    extra = []
    for m in range(2, 6):
        extra.append(PolySystem([z1 - z1 ** m, z2], degree_bound=m))
        extra.append(PolySystem([z1, z2 - z2 ** m], degree_bound=m))
        extra.append(PolySystem([z1 - z1 ** 2 * z2 ** (m - 2) if m > 2 else z1 - z1 ** 2,
                                 z2 - z1 ** m], degree_bound=m))
    out = base + extra
    return out[:count]


def random_affine_split_system(rng: random.Random, n1: int, n2: int,
                               deg: int = 3) -> PolySystem:
    """Square system whose trailing block is affine in z2 with a unimodular
    constant linear part (so the block inverse is closed form)."""
    N = n1 + n2
    comps = [random_poly(rng, N, range(1, deg + 1), 0.3, dense=False) for _ in range(n1)]
    # Unimodular integer matrix: product of elementary shears of the identity.
    A = [[Fraction(1) if i == j else Fraction(0) for j in range(n2)] for i in range(n2)]
    for _ in range(3):
        i, j = rng.randrange(n2), rng.randrange(n2)
        if i != j:
            f = random_rational(rng)
            for m in range(n2):
                A[i][m] += f * A[j][m]
    for j in range(n2):
        linear = Polynomial(N, {tuple(int(v == n1 + i) for v in range(N)): A[j][i]
                                for i in range(n2)})
        # affine tail in z1 only
        comps.append(linear + random_poly(rng, n1, range(1, deg), 0.4, dense=False).lift(N))
    return PolySystem(comps, nvars=N, degree_bound=max(deg, 1))
