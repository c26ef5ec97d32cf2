import random
from fractions import Fraction
from pathlib import Path

import pytest

import polyred.elimination
import polyred.poly
import polyred.series
from polyred.elimination import BlockNotInvertibleError, invert_R, invert_trailing_block, split
from polyred.gaussian import Gaussian, Q
from polyred.jacobian import (
    MEMBER,
    NON_MEMBER,
    LinearPartError,
    PolyMatrix,
    certify_polynomial_inverse,
    classical_degree_cap,
    drop_degree_zero,
    is_jlin,
    jacobian_matrix,
)
from polyred.io import read_system
from polyred.poly import Elimination, Polynomial, PolySystem, block_jacobian, compose_many, det
from polyred.reduction import phi_algebraic
from polyred.series import truncated_block_inverse
from polyred.samples import (
    curated_invertible_pairs,
    random_affine_split_system,
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


def sparse(rows):
    return [{j: a for j, a in enumerate(row) if not a.is_zero()} for row in rows]


def test_det_triangular_and_identity():
    I3 = PolyMatrix([{i: P.one(3)} for i in range(3)], 3)
    assert I3.det() == P.one(3)


def _permanent_style_det(rows, zero=None, one=None):
    # Leibniz expansion: an independent oracle for small determinants.
    n = len(rows)
    from itertools import permutations
    acc = P.zero(rows[0][0].nvars) if zero is None else zero
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if seen[a] > seen[b])
        sign = -1 if inv % 2 else 1
        term = P.one(rows[0][0].nvars) if one is None else one
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
            assert PolyMatrix(sparse(rows), 3).det() == expected
            assert det(sparse(rows), P.zero(3)) == expected


def test_det_zero_column():
    rows = [[P.zero(1), P.one(1), P.one(1)],
            [P.zero(1), P.variable(0, 1), P.one(1)],
            [P.zero(1), P.one(1), P.variable(0, 1)]]
    assert PolyMatrix(sparse(rows), 1).det().is_zero()


def test_unit_pivot_det_matches_leibniz(pivot_matrices):
    kinds = set()
    for label, rows, zero, one in pivot_matrices:
        kinds.add(label.split(" n=")[0])
        assert det(sparse(rows), zero) == _permanent_style_det(rows, zero, one), label
    assert len(kinds) == 6


def test_unit_pivot_elimination_paths():
    x, y = P.variable(0, 2), P.variable(1, 2)
    zero, one = P.zero(2), P.one(2)
    # pivot (0, 0) clears column 0 from row 1, whose column-1 fill-in cancels to zero
    rows = [[one, x, zero], [y, x * y, one], [zero, one, x]]
    elim = Elimination(sparse(rows), zero)
    assert elim.pivots[0][:2] == (0, 0) and elim.ops[0][0][0] == 1
    assert elim.rest == [] and elim.det == _permanent_style_det(rows)
    # no constant entry: everything is the remainder
    rows = [[x, y], [y + x, x * x]]
    elim = Elimination(sparse(rows), zero)
    assert elim.pivots == [] and elim.rest_rows == [0, 1]
    assert elim.det == _permanent_style_det(rows)
    # fill-in creates the constant that becomes the second pivot
    rows = [[one, x], [x, x * x + 3]]
    elim = Elimination(sparse(rows), zero)
    assert len(elim.pivots) == 2 and elim.rest == [] and elim.det == P.constant(3, 2)
    # a singular constant matrix empties a row of the remainder
    rows = [[one, P.constant(2, 2)], [P.constant(-3, 2), P.constant(-6, 2)]]
    assert det(sparse(rows), zero).is_zero()
    with pytest.raises(ValueError):
        det([{2: one}, {0: one}], zero)
    with pytest.raises(ValueError):
        det([], zero)


def _cramer(rows, v, zero, one):
    # x with rows * x = v by plain Cramer's rule over the Leibniz determinant
    n = len(rows)
    d = _permanent_style_det(rows, zero, one)
    assert d.is_constant() and not d.is_zero()
    cinv = d.constant_term().inverse()
    return [_permanent_style_det([row[:i] + [b] + row[i + 1:] for row, b in zip(rows, v)],
                                 zero, one).scale(cinv) for i in range(n)]


def _parametric_blocks(rng):
    """Square blocks M(s) over the ring of one parameter s with det M a nonzero constant.

    Seeded ones are a constant diagonal times random shears whose multipliers
    are polynomials in s; then one block without a unit pivot, and the
    non-triangular 3x3 linear part of ``test_elimination.py``.
    """
    s, zero = P.variable(0, 1), P.zero(1)
    blocks = []
    for nb in (1, 2, 2, 3, 3, 4):
        M = [[P.constant(rng.choice((1, -1, Q(0, 1), Q(2), Q("-1/2", 1))), 1) if i == j
              else zero for j in range(nb)] for i in range(nb)]
        for _ in range(rng.randint(1, 4) if nb > 1 else 0):
            a, b = rng.sample(range(nb), 2)
            m = s ** rng.randint(0, 2) * rng.choice((1, -1, 2)) + rng.choice((0, 1))
            M[a] = [p + m * q for p, q in zip(M[a], M[b])]
        blocks.append(M)
    blocks.append([[s + 1, s], [s, s - 1]])  # det -1, no constant entry
    blocks.append(_non_triangular_block())
    return blocks


def _non_triangular_block():
    s, u, v, w = (P.variable(i, 4) for i in range(4))
    c = Q(0, 2)

    def after(outer, inner):
        return compose_many(outer, [s] + inner)

    R = after([u, v, w + s * u + 1],
              after([u, v + s * w + u ** 2, w], after([u + s * v, v, w], [u.scale(c), v, w])))
    # equation j is component j, so row j holds dR_j/dz_(1+i), a polynomial in s
    return [[R[j].homogeneous_part(1, 1).partial(1 + i).restrict(1) for i in range(3)]
            for j in range(3)]


def test_unit_pivot_solve_matches_cramer(rng):
    blocks = _parametric_blocks(rng)
    assert not any(p.is_constant() for row in blocks[-2] for p in row)
    assert any(not p.is_constant() for row in blocks[-1] for p in row)
    for block in blocks:
        nv = len(block) + 1
        M = [[p.lift(nv) for p in row] for row in block]
        zero, one = P.zero(nv), P.one(nv)
        elim = Elimination(sparse(M), zero)
        assert elim.det == _permanent_style_det(M, zero, one)
        for _ in range(2):
            v = [P(nv, {tuple(rng.randint(0, 2) for _ in range(nv)): Q(rng.randint(-3, 3), 1)})
                 for _ in M]
            x = elim.solve(v)
            assert x == _cramer(M, v, zero, one)
            assert [sum((a * xi for a, xi in zip(row, x)), zero) for row in M] == v


def test_truncated_block_inverse_solves_like_cramer(rng, monkeypatch):
    # the affine block R = M(s) z + b0 has the inverse x with M x = y - b0,
    # and it normalizes to y - W with W = 0
    handed = []
    real = polyred.series.truncated_fixed_point

    def record(W, *args):
        handed.append(W)
        return real(W, *args)

    monkeypatch.setattr(polyred.series, "truncated_fixed_point", record)
    for block in _parametric_blocks(rng):
        nb = len(block)
        nv = nb + 1
        M = [[p.lift(nv) for p in row] for row in block]
        z = [P.variable(1 + i, nv) for i in range(nb)]
        b0 = [P.variable(0, nv) ** (j + 1) for j in range(nb)]
        R = [sum((a * zi for a, zi in zip(row, z)), b) for row, b in zip(M, b0)]
        P_, exact, _ = truncated_block_inverse(R, nv, 1, 2)
        assert exact and handed.pop() == [P.zero(nv)] * nb
        assert P_ == _cramer(M, [zi - b for zi, b in zip(z, b0)], P.zero(nv), P.one(nv))


def _forward_check(comps, nvars, start, P_):
    # the oracle: R(params, P) == y, composed in the original coordinates
    params = [P.variable(i, nvars) for i in range(start)]
    return compose_many(comps, params + P_) == [P.variable(i, nvars)
                                                 for i in range(start, nvars)]


def _parametric_nonaffine_block():
    # R = M(s) T + b0(s) on (s, u, v): T = (u + s*v^2 + i*v^3, v) is triangular,
    # M(s) = [[1, s], [-i*s, 1 - i*s^2]] has det 1, and b0 = (s^2 - 1, i*s)
    s, u, v = (P.variable(i, 3) for i in range(3))
    T = [u + s * v ** 2 + v ** 3 * Q(0, 1), v]
    M = [[P.one(3), s], [s * Q(0, -1), 1 - s ** 2 * Q(0, 1)]]
    b0 = [s ** 2 - 1, s * Q(0, 1)]
    return [sum((a * t for a, t in zip(row, T)), b) for row, b in zip(M, b0)]


def _certification_cases():
    """(label, comps, nvars, start, cap) on seeded blocks, each cap at or below its bound."""
    rng = random.Random(20261020)
    cases = []
    tame43, _ = read_system(str(GOLDEN / "tame43.json"))
    tame44, _ = read_system(str(GOLDEN / "tame44.json"))
    complex43 = [p.scale(Q(1, 1)) + Q(0, 2) for p in tame43.components]  # A = (1 + i) * 1, b0 = 2i
    for name, comps, bound in (("tame43", list(tame43.components), 27),
                               ("complex tame43", complex43, 27),
                               ("tame44", list(tame44.components), 64)):
        cases += [(f"{name} cap {cap}", comps, 4, 0, cap) for cap in (bound, bound - 1)]
    for n1, n2 in ((1, 2), (2, 2), (2, 3)):
        S = random_affine_split_system(rng, n1, n2)
        cases.append((f"affine split {n1}+{n2}", list(S.components[n1:]), n1 + n2, n1, 1))
    R = _parametric_nonaffine_block()
    cases += [(f"parametric complex cap {cap}", R, 3, 1, cap) for cap in (3, 2)]
    for d in (2, 2, 3, 3):
        F = random_zero_constant_system(rng, 2, d)
        while det(block_jacobian(F.components, 0), P.zero(2)).constant_term().is_zero():
            F = random_zero_constant_system(rng, 2, d)
        cases.append((f"random degree {d}", list(F.components), 2, 0, d))
    return cases


def test_normalized_certificate_agrees_with_the_forward_check():
    verdicts = []
    for label, comps, nvars, start, cap in _certification_cases():
        P_, exact, _ = truncated_block_inverse(comps, nvars, start, cap)
        assert exact == _forward_check(comps, nvars, start, P_), label
        verdicts.append(exact)
    assert verdicts.count(True) == 7 and verdicts.count(False) == 8


def test_one_changed_coefficient_of_q_fails_both_checks(monkeypatch):
    real = polyred.series.truncated_fixed_point

    def changed(*args):
        Q_ = real(*args)
        e = max(Q_[0].terms, key=lambda e: (sum(e), e))
        Q_[0] = Q_[0] + P.monomial(e, Q(1))
        return Q_

    tame43, _ = read_system(str(GOLDEN / "tame43.json"))
    affine = random_affine_split_system(random.Random(3), 2, 2)
    for comps, nvars, start, cap in ((list(tame43.components), 4, 0, 27),
                                     (_parametric_nonaffine_block(), 3, 1, 3),
                                     (list(affine.components[2:]), 4, 2, 1)):
        monkeypatch.setattr(polyred.series, "truncated_fixed_point", real)
        assert truncated_block_inverse(comps, nvars, start, cap)[1]
        monkeypatch.setattr(polyred.series, "truncated_fixed_point", changed)
        P_, exact, _ = truncated_block_inverse(comps, nvars, start, cap)
        assert not exact
        assert not _forward_check(comps, nvars, start, P_)


def test_affine_block_is_certified_without_a_product(monkeypatch):
    # W = 0 for an affine block, so its certifying composition substitutes into zeros
    calls = []

    def recording(polys, subs, *args):
        calls.append(list(polys))
        return compose_many(polys, subs, *args)

    monkeypatch.setattr(polyred.series, "compose_many", recording)
    image = phi_algebraic(PolySystem([z(0) + z(1) ** 3, z(1)], degree_bound=3)).system
    affine = random_affine_split_system(random.Random(7), 2, 3)
    for S, n1 in ((image, 2), (affine, 2)):
        calls.clear()
        rinv = invert_R(split(S, n1))
        assert rinv.certified
        assert calls[-1] and all(p.is_zero() for p in calls[-1])


def _leibniz_block_det(comps, start):
    nb = len(comps)
    zero = P.zero(comps[0].nvars)
    return _permanent_style_det([[row.get(j, zero) for j in range(nb)]
                                 for row in block_jacobian(comps, start)])


def test_block_inversion_eliminates_an_affine_block_once(monkeypatch):
    # For R affine in its block, J_R = A, so the solve's elimination of A^T is
    # the gate; a block of degree >= 2 is gated on J_R by an elimination of its own.
    built = []

    class Counting(Elimination):
        __slots__ = ()

        def __init__(self, rows, zero):
            built.append(len(rows))
            super().__init__(rows, zero)

    monkeypatch.setattr(polyred.poly, "Elimination", Counting)
    monkeypatch.setattr(polyred.series, "Elimination", Counting)

    def eliminations(S, n1):
        built.clear()
        rinv = invert_R(split(S, n1))
        assert rinv.certified
        assert rinv.det_jr == _leibniz_block_det(S.components[n1:], n1).constant_term()
        return len(built)

    image = phi_algebraic(PolySystem([z(0) + z(1) ** 3, z(1)], degree_bound=3)).system
    assert eliminations(image, 2) == 1
    affine = random_affine_split_system(random.Random(7), 2, 2)
    assert eliminations(affine, 2) == 1
    tame43, _ = read_system(str(GOLDEN / "tame43.json"))
    assert eliminations(tame43, 0) == 2

    # a singular affine block fails the gate in the solve, once, with the gate's
    # message and the Leibniz det J_R = 1*z1 - 1*z1 = 0 as its witness
    v = [P.variable(i, 3) for i in range(3)]
    R = [v[1] + v[2], v[0] * (v[1] + v[2])]
    built.clear()
    with pytest.raises(BlockNotInvertibleError) as err:
        invert_trailing_block(R, 3, 1)
    assert len(built) == 1
    assert str(err.value) == ("block Jacobian determinant is not a nonzero constant "
                              "(the block is singular for some parameter value)")
    assert err.value.witness == _leibniz_block_det(R, 1) == P.zero(3)


def test_nonaffine_block_is_gated_before_the_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("the solve ran before the gate answered")

    monkeypatch.setattr(polyred.elimination, "truncated_block_inverse", refuse)
    v = [P.variable(i, 3) for i in range(3)]
    for R in ([v[1] + v[2] ** 2, v[0] * (v[1] + v[2] ** 2)],   # det J_R = 0
              [v[1] + v[2] ** 2, v[2] + v[0] * v[1] ** 2]):    # det J_R = 1 - 4*z1*z2*z3
        with pytest.raises(BlockNotInvertibleError) as err:
            invert_trailing_block(R, 3, 1)
        assert err.value.witness == _leibniz_block_det(R, 1)


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


def _note(bound):
    return (f"degree cap {bound}; classical bound d^(n-1) = {bound} "
            "(imported background result, not derived here)")


def test_certify_triangular():
    F = PolySystem([z(0) - z(1) ** 2, z(1)])
    v = certify_polynomial_inverse(F)
    assert v.verdict == MEMBER
    assert v.witness == PolySystem([z(0) + z(1) ** 2, z(1)])
    assert v.detail == "exact two-sided polynomial inverse found; " + _note(2)


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
    v = certify_polynomial_inverse(PolySystem.identity(3))
    assert v.verdict == MEMBER and v.witness == PolySystem.identity(3)
    assert v.detail == "exact two-sided polynomial inverse found; " + _note(1)


def test_certify_catalan_never_terminates():
    zz = P.variable(0, 1)
    F = PolySystem([zz - zz * zz])
    v = certify_polynomial_inverse(F)
    assert v.verdict == NON_MEMBER and v.witness is None
    assert v.detail == "truncated series fails exact composition; " + _note(1)


def test_certify_nonmember_at_the_bound():
    # at cap = bound the truncated inverse has no part above the bound
    v = certify_polynomial_inverse(PolySystem([z(0) - z(0) ** 2, z(1)]))
    assert v.verdict == NON_MEMBER
    assert v.detail == "truncated series fails exact composition; " + _note(2)


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
    assert v.detail == "exact two-sided polynomial inverse found; " + _note(64)


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
