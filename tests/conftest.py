import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

from polyred.couplings import CouplingTensor
from polyred.gaussian import Q

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
