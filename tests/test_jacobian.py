from fractions import Fraction
from pathlib import Path

import pytest

from polyred.gaussian import Gaussian, Q
from polyred.jacobian import (
    MEMBER,
    NON_MEMBER,
    UNDETERMINED,
    LinearPartError,
    PolyMatrix,
    certify_polynomial_inverse,
    classical_degree_cap,
    drop_degree_zero,
    is_jlin,
    jacobian_matrix,
)
from polyred.io import read_system
from polyred.poly import Polynomial, PolySystem, det
from polyred.samples import (
    curated_invertible_pairs,
    random_couplings,
    random_zero_constant_system,
)

P = Polynomial
GOLDEN = Path(__file__).parent / "golden"


def z(i, n=2):
    return P.variable(i, n)


def test_jacobian_identity():
    J = jacobian_matrix(PolySystem.identity(2))
    assert J[0, 0] == P.one(2) and J[1, 1] == P.one(2)
    assert J[0, 1].is_zero() and J[1, 0].is_zero()


def test_jacobian_index_convention():
    # entry (i, j) differentiates component j by variable i
    F = PolySystem([z(0) - z(1) ** 2, z(1)])
    J = jacobian_matrix(F)
    assert J[0, 0] == P.one(2)
    assert J[0, 1].is_zero()
    assert J[1, 0] == P.monomial((0, 1), -2)
    assert J[1, 1] == P.one(2)
    assert J.det() == P.one(2)


def test_jacobian_requires_square():
    with pytest.raises(ValueError):
        jacobian_matrix(PolySystem([z(0)], nvars=2))


def test_det_triangular_and_identity():
    I3 = PolyMatrix([[P.one(3) if i == j else P.zero(3) for j in range(3)]
                     for i in range(3)])
    assert I3.det() == P.one(3)


def _permanent_style_det(rows):
    # Leibniz expansion: an independent oracle for small determinants.
    n = len(rows)
    from itertools import permutations
    acc = P.zero(rows[0][0].nvars)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if seen[a] > seen[b])
        sign = -1 if inv % 2 else 1
        term = P.one(rows[0][0].nvars)
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term if sign > 0 else acc - term
    return acc


def test_det_matches_leibniz(rng):
    # sizes 1-6, Gaussian coefficients; the first matrix of each size has a zero row
    for size in range(1, 7):
        for trial in range(3):
            rows = []
            for _i in range(size):
                row = []
                for _j in range(size):
                    terms = {}
                    for _t in range(2):
                        e = tuple(rng.randint(0, 1) for _ in range(3))
                        c = Gaussian(rng.randint(-2, 2), rng.randint(-1, 1))
                        if not c.is_zero():
                            terms[e] = c
                    row.append(P(3, terms))
                rows.append(row)
            if trial == 0:
                rows[rng.randrange(size)] = [P.zero(3)] * size
            expected = _permanent_style_det(rows)
            assert PolyMatrix(rows).det() == expected
            assert det(rows, P.zero(3)) == expected


def test_det_zero_column():
    rows = [[P.zero(1), P.one(1), P.one(1)],
            [P.zero(1), P.variable(0, 1), P.one(1)],
            [P.zero(1), P.one(1), P.variable(0, 1)]]
    assert PolyMatrix(rows).det().is_zero()


def test_is_jlin_examples():
    assert is_jlin(PolySystem.identity(2)).verdict == MEMBER
    assert is_jlin(PolySystem.identity(2)).witness == Q(1)
    assert is_jlin(PolySystem([z(0) - z(1) ** 2, z(1)])).verdict == MEMBER
    v = is_jlin(PolySystem([z(0) ** 2, z(1)]))
    assert v.verdict == NON_MEMBER
    assert v.witness == P.monomial((1, 0), 2)


def test_drop_degree_zero():
    F = PolySystem([z(0) + 5, z(1) - 2])
    assert drop_degree_zero(F) == PolySystem([z(0), z(1)])
    G = PolySystem([z(0) - z(1) ** 2 + 1, z(1)])
    assert drop_degree_zero(G) == PolySystem([z(0) - z(1) ** 2, z(1)])
    H = PolySystem([z(0) - z(1) ** 2, z(1)])
    assert drop_degree_zero(H) == H


def test_classical_degree_cap():
    assert classical_degree_cap(3, 1) == 1
    assert classical_degree_cap(3, 2) == 3
    assert classical_degree_cap(2, 3) == 4


def _note(cap, bound):
    return (f"degree cap {cap}; classical bound d^(n-1) = {bound} "
            "(imported background result, not derived here)")


def test_certify_triangular():
    F = PolySystem([z(0) - z(1) ** 2, z(1)])
    v = certify_polynomial_inverse(F, 2)
    assert v.verdict == MEMBER
    assert v.witness == PolySystem([z(0) + z(1) ** 2, z(1)])
    assert v.detail == "exact two-sided polynomial inverse found; " + _note(2, 2)


def test_certify_non_diagonal_complex_linear_part():
    # F = L(S(z)) + c with S the shear (z1 + z2^2, z2) and L = [[1, i], [2, 1+i]],
    # so F^{-1}(y) = S^{-1}(L^{-1}(y - c)) with L^{-1} = [[i, (1-i)/2], [-1-i, (1+i)/2]].
    s1, s2 = z(0) + z(1) ** 2, z(1)
    c = [Q(3), Q(0, -1)]
    F = PolySystem([s1 + s2.scale(Q(0, 1)) + c[0],
                    s1.scale(2) + s2.scale(Q(1, 1)) + c[1]])
    y = [z(0) - c[0], z(1) - c[1]]
    u1 = y[0].scale(Q(0, 1)) + y[1].scale(Q("1/2", "-1/2"))
    u2 = y[0].scale(Q(-1, -1)) + y[1].scale(Q("1/2", "1/2"))
    v = certify_polynomial_inverse(F)
    assert v.verdict == MEMBER
    assert v.witness == PolySystem([u1 - u2 ** 2, u2])
    ident = PolySystem.identity(2)
    assert F.after(v.witness) == ident and v.witness.after(F) == ident


def test_certify_identity_any_cap():
    for cap in (None, 1, 5):
        v = certify_polynomial_inverse(PolySystem.identity(3), cap)
        assert v.verdict == MEMBER and v.witness == PolySystem.identity(3)


def test_certify_catalan_never_terminates():
    zz = P.variable(0, 1)
    F = PolySystem([zz - zz * zz])
    v = certify_polynomial_inverse(F, 10)
    assert v.verdict == NON_MEMBER
    assert v.detail == ("formal inverse has a nonzero grade 1 (degree 2 > bound); "
                        + _note(10, 1))


def test_certify_nonmember_at_the_bound():
    # at cap = bound the truncated inverse has no part above the bound
    v = certify_polynomial_inverse(PolySystem([z(0) - z(0) ** 2, z(1)]))
    assert v.verdict == NON_MEMBER
    assert v.detail == "truncated series fails exact composition; " + _note(2, 2)


def test_certify_undetermined_below_bound():
    # degree-6 composed shear: the default bound is 6; a cap of 2 must not decide membership
    Fs = [F for F, _ in curated_invertible_pairs() if F.degree() == 6]
    assert Fs
    v = certify_polynomial_inverse(Fs[0], 2)
    assert v.verdict == UNDETERMINED
    assert v.detail == "cap below the certified bound; " + _note(2, 6)


def tame_map(n, d):
    """F = L o T o M and its inverse M^{-1} o T^{-1} o L^{-1}, from the elementary steps.

    T = (z_i + z_{i+1}^d for i < n, then z_n); M adds z_{i+1} to z_i for odd i
    and L adds z_{i-1} to z_i for even i (1-based).  T^{-1} is back
    substitution, so the inverse is known without any inversion routine.
    """
    v = [P.variable(i, n) for i in range(n)]
    T = PolySystem([v[i] + v[i + 1] ** d for i in range(n - 1)] + [v[n - 1]])
    w = [v[n - 1]]
    for i in range(n - 2, -1, -1):
        w.insert(0, v[i] - w[0] ** d)
    M = PolySystem([v[i] + v[i + 1] if i % 2 == 0 and i + 1 < n else v[i] for i in range(n)])
    Minv = PolySystem([v[i] - v[i + 1] if i % 2 == 0 and i + 1 < n else v[i] for i in range(n)])
    L = PolySystem([v[i] + v[i - 1] if i % 2 == 1 else v[i] for i in range(n)])
    Linv = PolySystem([v[i] - v[i - 1] if i % 2 == 1 else v[i] for i in range(n)])
    return L.after(T.after(M)), Minv.after(PolySystem(w).after(Linv))


@pytest.mark.parametrize("name, n, d", [("tame43", 4, 3), ("tame44", 4, 4)])
def test_tame_fixtures_are_the_documented_maps(name, n, d):
    F, _ = read_system(str(GOLDEN / f"{name}.json"))
    assert F == tame_map(n, d)[0]


def test_certify_tame44_finds_the_known_inverse():
    # cap d^(n-1) = 64; the inverse has 1956 terms, so a backward composition
    # P(F) would build degree-256 intermediates
    F, _ = read_system(str(GOLDEN / "tame44.json"))
    _, Finv = tame_map(4, 4)
    assert sum(len(p.terms) for p in Finv.components) == 1956
    v = certify_polynomial_inverse(F)
    assert v.verdict == MEMBER
    assert v.witness == Finv
    assert v.detail == "exact two-sided polynomial inverse found; " + _note(64, 64)


def test_certify_affine_and_shifted():
    F = PolySystem([z(0) + z(1) ** 2 + 3, z(1) - 1])
    v = certify_polynomial_inverse(F)
    assert v.verdict == MEMBER
    ident = PolySystem.identity(2)
    assert F.after(v.witness) == ident and v.witness.after(F) == ident


def test_certify_singular_linear_part_raises():
    with pytest.raises(LinearPartError):
        certify_polynomial_inverse(PolySystem([z(0) ** 2, z(1)]))
    with pytest.raises(LinearPartError):  # rank-one linear part, no zero row
        certify_polynomial_inverse(PolySystem([z(0) + z(1) + z(0) ** 2, z(0) + z(1)]))


def test_member_implies_jlin(rng):
    # necessity: certified invertibility forces a constant determinant
    for F, _ in curated_invertible_pairs()[:10]:
        assert certify_polynomial_inverse(F).verdict == MEMBER
        assert is_jlin(F).verdict == MEMBER


def test_normalized_determinant_constant_term_is_one(rng):
    for _ in range(10):
        w = random_couplings(rng, 2, 3)
        F = w.to_system()
        det = jacobian_matrix(F).det()
        assert det.constant_term() == Q(1)


def test_chain_rule(rng):
    for _ in range(10):
        F = random_zero_constant_system(rng, 2, 3)
        G = random_zero_constant_system(rng, 2, 3)
        lhs = jacobian_matrix(F.after(G)).det()
        rhs = jacobian_matrix(G).det() * \
            jacobian_matrix(F).det().compose(list(G.components))
        assert lhs == rhs
