import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

from polyred.couplings import CouplingTensor
from polyred.gaussian import Q
from polyred.poly import Polynomial
from polyred.series import GradedPoly

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def complex_couplings():
    """Seeded random couplings with non-real Gaussian entries, all degrees present.

    Every component is drawn on its own, so the Jacobian of the nonlinearity
    is not symmetric in general.
    """

    def make(seed: int, n: int, d: int, quadratic_free: bool = False) -> CouplingTensor:
        rng = random.Random(seed)
        entries = {}
        for k in range(3 if quadratic_free else 2, d + 1):
            for i in range(n):
                tuples = list(combinations_with_replacement(range(n), k))
                for t in rng.sample(tuples, max(1, len(tuples) // 2)):
                    entries[(k, i, t)] = Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                           rng.choice((1, -1, Fraction(1, 2))))
        return CouplingTensor(n, d, entries)

    return make


@pytest.fixture
def pivot_matrices():
    """Seeded square matrices for the unit-pivot elimination, as dense rows.

    Returns (label, rows, zero, one) cases.  The labels name what each kind
    exercises: unit pivots of both signs; complex and non-1 constant pivots;
    L * B products whose elimination fill-in cancels (B sparse upper
    triangular with a constant diagonal); all-constant matrices, singular
    ones among them; matrices with no constant entry at all; and the graded
    1 - M with M of grade >= 1 and some zero entries, so that a diagonal 1
    is a pivot.
    """
    rng = random.Random(20261020)
    nv = 2
    zero, one = Polynomial.zero(nv), Polynomial.one(nv)
    constants = [Q(2), Q(Fraction(-1, 3)), Q(0, 1), Q(1, 1), Q(Fraction(3, 2), -2)]

    def poly(max_terms=2, constant_term=True):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(0, 2), rng.randint(0, 1))
            if constant_term or any(e):
                terms[e] = Q(rng.randint(-2, 2), rng.choice((0, 0, 1)))
        return Polynomial(nv, terms)

    def sparse_poly_matrix(n, density=0.6, constant_term=True):
        return [[poly(constant_term=constant_term) if rng.random() < density else zero
                 for _ in range(n)] for _ in range(n)]

    cases = []
    for n in range(1, 6):
        for trial in range(2):
            for label, values in (("signed units", [one, -one]),
                                  ("constants", [Polynomial.constant(c, nv) for c in constants])):
                rows = sparse_poly_matrix(n)
                for _ in range(rng.randint(1, n + 1)):
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(values)
                cases.append((f"{label} n={n}", rows, zero, one))

            B = [[zero] * n for _ in range(n)]
            for i in range(n):
                B[i][i] = rng.choice([one, -one, Polynomial.constant(Q(0, 2), nv)])
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        B[i][j] = poly()
            L = [[one if i == j else (poly() if j < i and rng.random() < 0.7 else zero)
                  for j in range(n)] for i in range(n)]
            LB = [[sum((L[i][k] * B[k][j] for k in range(n)), zero) for j in range(n)]
                  for i in range(n)]
            cases.append((f"cancelling fill-in n={n}", LB, zero, one))

            rows = [[Polynomial.constant(rng.choice(constants + [Q(0)] * 2), nv)
                     for _ in range(n)] for _ in range(n)]
            if trial and n > 1:
                rows[-1] = [p.scale(Q(0, -3)) for p in rows[0]]
            cases.append((f"all constant n={n}", rows, zero, one))

            cases.append((f"no pivot n={n}",
                          sparse_poly_matrix(n, 0.8, constant_term=False), zero, one))

    order = 3
    g_zero, g_one = GradedPoly.zero(order, 1), GradedPoly.one(order, 1)
    for n in range(1, 5):
        for _ in range(3):
            M = [[GradedPoly(order, 1, Polynomial(
                      2, {(rng.randint(0, 2), rng.randint(1, order)): Q(rng.randint(-2, 2), 1)}))
                  if rng.random() < 0.5 else g_zero for _ in range(n)] for _ in range(n)]
            rows = [[(g_one - M[i][j]) if i == j else -M[i][j] for j in range(n)]
                    for i in range(n)]
            cases.append((f"graded 1 - M n={n}", rows, g_zero, g_one))
    return cases
