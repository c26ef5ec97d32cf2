import pytest

from polyred.couplings import CouplingTensor, NormalizationError, orderings
from polyred.gaussian import Q
from polyred.poly import Polynomial, PolySystem
from polyred.samples import random_couplings

P = Polynomial


def test_extract_single_variable_square():
    z = P.variable(0, 1)
    F = PolySystem([z - z * z])
    w = CouplingTensor.from_system(F)
    assert w.entries == {(2, 0, (0, 0)): Q(1)}


def test_extract_identity_is_empty():
    w = CouplingTensor.from_system(PolySystem.identity(3))
    assert w.entries == {}


def test_extract_mixed_monomial():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    F = PolySystem([z1 - P.monomial((1, 2), 3), z2])
    w = CouplingTensor.from_system(F)
    assert w.entries == {(3, 0, (0, 1, 1)): Q(3)}


def test_round_trip(rng):
    for _ in range(15):
        w = random_couplings(rng, rng.choice((1, 2, 3)), rng.choice((2, 3, 4)))
        assert CouplingTensor.from_system(w.to_system()) == w


def test_normalization_errors():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    with pytest.raises(NormalizationError):
        CouplingTensor.from_system(PolySystem([z1 + 1, z2]))
    with pytest.raises(NormalizationError):
        CouplingTensor.from_system(PolySystem([z1 + z2, z2]))
    with pytest.raises(NormalizationError):
        CouplingTensor.from_system(PolySystem([z1, z2, z1 + z2]))


def test_symmetric_value_divides_by_orderings():
    w = CouplingTensor(2, 2, {(2, 0, (0, 1)): Q(1)})
    assert w.symmetric_value(2, 0, (0, 1)) == Q("1/2")
    assert w.symmetric_value(2, 0, (0, 0)) == Q(0)


def test_orderings_counts():
    assert orderings((0, 0)) == 1
    assert orderings((0, 1)) == 2
    assert orderings((0, 1, 1)) == 3
    assert orderings((0, 1, 2)) == 6


def test_coupling_poly():
    w = CouplingTensor(2, 3, {(3, 0, (0, 1, 1)): Q(3), (2, 0, (0, 0)): Q(-1)})
    assert w.coupling_poly(0, 3) == P.monomial((1, 2), 3)
    assert w.coupling_poly(0, 2) == P.monomial((2, 0), -1)
    assert w.coupling_poly(1, 2).is_zero()
    assert w.degrees() == [2, 3]
    assert w.has_quadratic()


def test_graded_nonlinearity_weights_degree_k_by_theta_to_the_k_minus_1():
    w = CouplingTensor(2, 3, {(2, 0, (0, 1)): Q(3), (3, 0, (1, 1, 1)): Q(0, 1),
                              (3, 1, (0, 0, 1)): Q(-2)})
    assert w.graded_nonlinearity() == [P.monomial((1, 1, 1), 3) + P.monomial((0, 3, 2), Q(0, 1)),
                                       P.monomial((2, 1, 2), -2)]
    assert CouplingTensor(3, 4).graded_nonlinearity() == [P.zero(4)] * 3


def test_validation():
    with pytest.raises(ValueError):
        CouplingTensor(2, 3, {(3, 0, (1, 0, 0)): Q(1)})   # unsorted tuple
    with pytest.raises(ValueError):
        CouplingTensor(2, 3, {(5, 0, (0,) * 5): Q(1)})    # degree above bound
    with pytest.raises(ValueError):
        CouplingTensor(2, 3, {(2, 0, (0, 2)): Q(1)})      # index out of range
    with pytest.raises(ValueError):
        CouplingTensor(0, 2)                              # no variables
