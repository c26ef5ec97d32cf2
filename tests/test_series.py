from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

import polyred.series
from polyred.couplings import CouplingTensor
from polyred.gaussian import Gaussian, Q
from polyred.poly import Polynomial, PolySystem, block_jacobian, compose_many
from polyred.samples import random_couplings
from polyred.reduction import euler_weighted_gradient, phi_qft
from polyred.series import (
    GradedPoly,
    GradedSeriesVector,
    PlaneTree,
    compose_poly,
    enumerate_trees,
    formal_inverse_fixed_point,
    inversion_defect,
    partition_identity,
    theta_homogeneity_check,
    tree_amplitude,
    tree_oracle_inverse,
    z_det_identity_check,
)

P = Polynomial


def catalan(r):
    return comb(2 * r, r) // (r + 1)


W_CATALAN = CouplingTensor(1, 2, {(2, 0, (0, 0)): Q(1)})


def test_fixed_point_catalan_grades():
    # Independent oracle: one-variable series reversion gives Catalan numbers.
    G = formal_inverse_fixed_point(W_CATALAN, 5)
    for r in range(6):
        assert G[0].grade(r) == P.monomial((r + 1,), catalan(r))


def test_fixed_point_zero_couplings():
    w = CouplingTensor(2, 3)
    G = formal_inverse_fixed_point(w, 4)
    for i in range(2):
        assert G[i].grade(0) == P.variable(i, 2)
        for r in range(1, 5):
            assert G[i].grade(r).is_zero()


def test_fixed_point_terminates_on_triangular():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    w = CouplingTensor.from_system(PolySystem([z1 - z2 * z2, z2]))
    G = formal_inverse_fixed_point(w, 5)
    assert G[0].grade(1) == P.monomial((0, 2), 1)
    assert G[1].grade(0) == z2
    for r in range(2, 6):
        assert G[0].grade(r).is_zero()
        assert G[1].grade(r).is_zero()


def test_defect_vanishes(rng):
    for _ in range(10):
        w = random_couplings(rng, rng.choice((1, 2)), rng.choice((2, 3, 4)))
        G = formal_inverse_fixed_point(w, 5)
        assert inversion_defect(w, G).is_zero()


def test_tree_counts():
    def count(d, weight):
        return sum(1 for t in enumerate_trees(d, weight) if t.theta_weight == weight)

    assert count(2, 1) == 1
    assert count(2, 2) == 2            # one extra vertex in either child slot
    assert count(3, 1) == 1
    assert count(3, 2) == 3            # one ternary vertex, or stacked binaries x2
    assert sum(1 for _ in enumerate_trees(3, 2)) == 4
    # binary plane trees of weight r are counted by Catalan numbers
    for r in range(1, 6):
        assert count(2, r) == catalan(r)


def test_tree_validation():
    with pytest.raises(ValueError):
        list(enumerate_trees(1, 2))
    with pytest.raises(ValueError):
        list(enumerate_trees(2, 0))


def test_single_vertex_amplitude():
    tree = next(iter(enumerate_trees(2, 1)))
    amp = tree_amplitude(tree, W_CATALAN)
    assert amp[0] == P.monomial((2,), 1)


def test_stacked_binary_amplitudes_sum():
    trees = [t for t in enumerate_trees(2, 2) if t.theta_weight == 2]
    acc = P.zero(1)
    for t in trees:
        a = tree_amplitude(t, W_CATALAN)[0]
        assert a == P.monomial((3,), 1)
        acc = acc + a
    assert acc == P.monomial((3,), 2)  # matches the grade-2 Catalan coefficient


def test_amplitude_contracts_mixed_indices():
    # one binary vertex, n = 2, coupling monomial u1*u2 with coefficient 3:
    # the contraction must reproduce exactly 3*u1*u2.
    w = CouplingTensor(2, 2, {(2, 0, (0, 1)): Q(3)})
    tree = next(iter(enumerate_trees(2, 1)))
    amp = tree_amplitude(tree, w)
    assert amp[0] == P.monomial((1, 1), 3)
    assert amp[1].is_zero()


def test_oracle_equals_fixed_point(rng):
    assert tree_oracle_inverse(W_CATALAN, 5) == formal_inverse_fixed_point(W_CATALAN, 5)
    for _ in range(6):
        n, d = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3), (2, 4)))
        w = random_couplings(rng, n, d)
        assert tree_oracle_inverse(w, 4) == formal_inverse_fixed_point(w, 4)


def test_log_partition_low_grades():
    # F = u - w u^2: ln Z = -ln(1 - 2 w G) = 2w u + 4 w^2 u^2 + ... (here w = 1)
    lnZ = partition_identity(W_CATALAN, 3)[0]
    assert lnZ.grade(0).is_zero()
    assert lnZ.grade(1) == P.monomial((1,), 2)
    assert lnZ.grade(2) == P.monomial((2,), 4)
    # F = u - w u^3, w = 1: the first contribution is 3 u^2 at grade 2.
    w3 = CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): Q(1)})
    lnZ3 = partition_identity(w3, 4)[0]
    assert lnZ3.grade(1).is_zero()
    assert lnZ3.grade(2) == P.monomial((2,), 3)


def test_z_det_identity(rng):
    ok, _ = z_det_identity_check(W_CATALAN, 5)
    assert ok
    for _ in range(6):
        w = random_couplings(rng, rng.choice((1, 2)), rng.choice((2, 3)))
        ok, residual = z_det_identity_check(w, 4)
        assert ok, residual


def test_z_det_identity_builds_one_curvature_matrix(monkeypatch, complex_couplings):
    built = []
    real = polyred.series._curvature_matrix

    def counting(w, G):
        built.append(G.order)
        return real(w, G)

    monkeypatch.setattr(polyred.series, "_curvature_matrix", counting)
    w = complex_couplings(11, 2, 3)
    ok, _ = z_det_identity_check(w, 4)
    assert ok and built == [4]
    with pytest.raises(ValueError, match="order must be at least 1"):
        z_det_identity_check(w, 0)


W_SPARSE3 = CouplingTensor(3, 3, {(2, 0, (1, 2)): Q(1, 1), (3, 2, (0, 0, 1)): Q(Fraction(-1, 2)),
                                   (2, 1, (2, 2)): Q(2)})


@pytest.mark.parametrize("order", [1, 4])
def test_curvature_matrix_composes_only_nonzero_entries(order, monkeypatch):
    batches = []
    real = polyred.series.compose_many

    def recording(polys, *args):
        batches.append(list(polys))
        return real(polys, *args)

    G = formal_inverse_fixed_point(W_SPARSE3, order)
    monkeypatch.setattr(polyred.series, "compose_many", recording)
    M = polyred.series._curvature_matrix(W_SPARSE3, G)
    JW = block_jacobian(W_SPARSE3.graded_nonlinearity(), 0)
    entries = [p for row in JW for p in row.values()]
    assert len(entries) < 3 * 3 and not any(p.is_zero() for p in entries)
    assert batches == [entries]
    assert not any(m.is_zero() for row in M for m in row.values())
    # dense reference: every entry the sparse rows leave out is zero
    dense = loop_curvature(W_SPARSE3, G)
    zero = GradedPoly.zero(order, 3)
    assert all(M[j].get(i, zero) == dense[i][j] for i in range(3) for j in range(3))
    # at order 1 the cubic coupling's theta^2 entries are cut to zero and left out
    assert sum(map(len, M)) == (len(entries) if order > 1 else 3)


def test_zero_couplings_partition():
    w = CouplingTensor(2, 2)
    lnZ = partition_identity(w, 3)[0]
    assert all(lnZ.grade(r).is_zero() for r in range(4))
    ok, _ = z_det_identity_check(w, 3)
    assert ok


def test_theta_homogeneity():
    assert theta_homogeneity_check(W_CATALAN, 4, Q(1))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(2))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(Fraction(3, 2)))
    assert theta_homogeneity_check(W_CATALAN, 4, Q(-1))
    with pytest.raises(ValueError):
        theta_homogeneity_check(W_CATALAN, 3, Q(0))


def test_theta_homogeneity_random(rng):
    for _ in range(4):
        w = random_couplings(rng, 2, rng.choice((2, 3)))
        assert theta_homogeneity_check(w, 4, Q(Fraction(3, 2)))


def test_graded_poly_arithmetic():
    a = GradedPoly.of_poly(P.variable(0, 1), 3, grade=1)
    b = GradedPoly.of_poly(P.one(1), 3, grade=0)
    prod = a * (a + b)
    assert prod.grade(1) == P.variable(0, 1)
    assert prod.grade(2) == P.monomial((2,), 1)
    assert prod.grade(3).is_zero()
    with pytest.raises(ValueError):
        b.exp()  # nonzero grade-0 part
    e = a.exp()
    assert e.grade(0) == P.one(1)
    assert e.grade(2) == P.monomial((2,), Q("1/2"))


# -- GradedPoly against a grade-list reference ----------------------------------
# The reference keeps one Polynomial per grade 0..order and multiplies by
# convolution, independently of the theta-variable storage under test.


def ref_mul(a, b, order):
    out = [P.zero(a[0].nvars) for _ in range(order + 1)]
    for r1, p1 in enumerate(a):
        for r2, p2 in enumerate(b):
            if r1 + r2 <= order:
                out[r1 + r2] = out[r1 + r2] + p1 * p2
    return out


def ref_exp(a, order):
    out = [P.one(a[0].nvars)] + [P.zero(a[0].nvars)] * order
    power = list(out)
    for m in range(1, order + 1):
        power = ref_mul(power, a, order)
        out = [o + p.scale(Q(Fraction(1, factorial(m)))) for o, p in zip(out, power)]
    return out


def ref_compose(p, args, order):
    nv = args[0][0].nvars
    out = [P.zero(nv) for _ in range(order + 1)]
    for exps, c in p.terms.items():
        term = [P.constant(c, nv)] + [P.zero(nv)] * order
        for i, e in enumerate(exps):
            for _ in range(e):
                term = ref_mul(term, args[i], order)
        out = [o + t for o, t in zip(out, term)]
    return out


def of_parts(parts, order):
    acc = GradedPoly.zero(order, parts[0].nvars)
    for r, p in enumerate(parts):
        acc = acc + GradedPoly.of_poly(p, order, grade=r)
    return acc


complex_coeff = st.builds(Gaussian, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))


def ring_polys(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), complex_coeff,
                           max_size=3).map(lambda terms: P(nvars, terms))


@st.composite
def graded_case(draw, count=2, zero_grade0=False):
    """(order, nvars, [grade lists]): ``count`` series in one ring and order."""
    order, nvars = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    series = []
    for _ in range(count):
        parts = [draw(ring_polys(nvars)) for _ in range(order + 1)]
        if zero_grade0:
            parts[0] = P.zero(nvars)
        series.append(parts)
    return order, nvars, series


@given(graded_case())
def test_graded_poly_matches_grade_lists(case):
    order, nvars, (a, b) = case
    ga, gb = of_parts(a, order), of_parts(b, order)
    assert ga.parts == a and ga.grade(order + 1).is_zero()
    assert (ga * gb).parts == ref_mul(a, b, order)
    assert (ga - gb).parts == [x - y for x, y in zip(a, b)]
    nonzero = [r for r, p in enumerate(a) if not p.is_zero()]
    assert ga.min_grade() == (nonzero[0] if nonzero else None)
    assert ga.is_zero() == (not nonzero)
    assert (ga == gb) == (a == b)


@given(graded_case(count=1, zero_grade0=True))
def test_graded_poly_exp_matches_grade_lists(case):
    order, _, (a,) = case
    assert of_parts(a, order).exp().parts == ref_exp(a, order)


@given(graded_case(), st.data())
def test_compose_poly_matches_grade_lists(case, data):
    order, _, args = case
    p = data.draw(ring_polys(len(args)))
    got = compose_poly(p, [of_parts(a, order) for a in args], order)
    assert got.parts == ref_compose(p, args, order)


@given(ring_polys(2), st.integers(0, 3), st.integers(0, 5))
def test_graded_poly_of_poly_places_one_grade(p, order, grade):
    g = GradedPoly.of_poly(p, order, grade)
    for r in range(order + 2):
        assert g.grade(r) == (p if r == grade <= order else P.zero(2))


# -- graded evaluations against the per-coupling loop formulas -------------------
# The references compose each coupling degree k on its own and raise the result
# k - 1 grades by a product with theta^(k-1), entry by entry, with no W~.


def theta_power(k, order, nvars):
    return GradedPoly.of_poly(P.one(nvars), order, grade=k)


def loop_defect(w, G):
    out = []
    for i in range(w.dims):
        acc = G[i] - GradedPoly.of_poly(P.variable(i, w.dims), G.order)
        for k in w.degrees():
            acc = acc - compose_poly(w.coupling_poly(i, k), G.components, G.order) \
                * theta_power(k - 1, G.order, G.nvars)
        out.append(acc)
    return out


def loop_curvature(w, G):
    """M[i][j] = sum_k theta^(k-1) dW_k,i/dz_j (G), one entry at a time."""
    n = w.dims
    M = [[GradedPoly.zero(G.order, G.nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in w.degrees():
            for j in range(n):
                dp = w.coupling_poly(i, k).partial(j)
                M[i][j] = M[i][j] + compose_poly(dp, G.components, G.order) \
                    * theta_power(k - 1, G.order, G.nvars)
    return M


def loop_log_partition(M, order, nvars):
    n = len(M)
    acc, power = GradedPoly.zero(order, nvars), M
    for r in range(1, order + 1):
        for i in range(n):
            acc = acc + power[i][i].scale(Q(Fraction(1, r)))
        power = [[sum((power[i][m] * M[m][j] for m in range(n)), GradedPoly.zero(order, nvars))
                  for j in range(n)] for i in range(n)]
    return acc


def leibniz_det_of_one_minus(M, order, nvars):
    n = len(M)
    one = GradedPoly.one(order, nvars)
    acc = GradedPoly.zero(order, nvars)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = one.scale(Q(sign))
        for i in range(n):
            term = term * ((one if perm[i] == i else GradedPoly.zero(order, nvars)) - M[i][perm[i]])
        acc = acc + term
    return acc


@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in (2, 3, 4)])
def test_graded_evaluations_match_loop_formulas(n, d, complex_couplings):
    order = 3
    w = complex_couplings(100 * n + d, n, d)
    assert any(c.im != 0 for c in w.entries.values())
    G = formal_inverse_fixed_point(w, order)
    # perturb one grade-1 coordinate so that the defect is nonzero
    bump = GradedPoly.of_poly(P.monomial((1,) * n, Q(1, 1)), order, grade=1)
    G = GradedSeriesVector([G[0] + bump] + list(G.components[1:]))
    defect = inversion_defect(w, G)
    assert not defect.is_zero()
    assert list(defect.components) == loop_defect(w, G)
    M = loop_curvature(w, G)
    if n > 1:
        assert any(M[i][j] != M[j][i] for i in range(n) for j in range(n))
    sparse = polyred.series._curvature_matrix(w, G)
    assert polyred.series._log_partition(sparse, order, n) == loop_log_partition(M, order, n)
    assert polyred.series._det_one_minus(sparse, order, n) == \
        leibniz_det_of_one_minus(M, order, n)


def test_graded_evaluations_do_not_compose_one_polynomial_at_a_time(monkeypatch,
                                                                    complex_couplings):
    def refuse(*args, **kwargs):
        raise AssertionError("compose_poly called")

    monkeypatch.setattr(polyred.series, "compose_poly", refuse)
    w = complex_couplings(7, 2, 4, quadratic_free=True)
    G = formal_inverse_fixed_point(w, 3)
    assert inversion_defect(w, G).is_zero()
    M = polyred.series._curvature_matrix(w, G)
    polyred.series._log_partition(M, 3, 2)
    polyred.series._det_one_minus(M, 3, 2)
    euler_weighted_gradient(w.to_system())
    phi_qft(w)


# References for the tree oracle: a plain per-tree recursion that contracts
# every subtree again under each parent and scans all tensor entries at every
# vertex, with no memo.


def reference_amplitude(tree, w, source):
    if tree.is_leaf():
        return list(source)
    nv = source[0].nvars
    child_amps = [reference_amplitude(c, w, source) for c in tree.children]
    k = len(tree.children)
    out = [P.zero(nv) for _ in range(w.dims)]
    for (kk, i, idx) in w.entries:
        if kk != k:
            continue
        contribution = P.zero(nv)
        for ordered in set(permutations(idx)):
            prod = P.one(nv)
            for slot, j in enumerate(ordered):
                prod = prod * child_amps[slot][j]
            contribution = contribution + prod
        out[i] = out[i] + contribution.scale(w.symmetric_value(k, i, idx))
    return out


def reference_oracle(w, order, source):
    acc = [GradedPoly.of_poly(p, order) for p in source]
    for tree in enumerate_trees(w.max_degree, order):
        for i, p in enumerate(reference_amplitude(tree, w, source)):
            acc[i] = acc[i] + GradedPoly.of_poly(p, order, grade=tree.theta_weight)
    return GradedSeriesVector(acc)


def on_source(G, source):
    """G composed onto (source, theta): the inverse series with its leaves at the source."""
    nv = source[0].nvars
    subs = [s.lift(nv + 1) for s in source] + [P.variable(nv, nv + 1)]
    return GradedSeriesVector([GradedPoly(G.order, nv, p)
                               for p in compose_many([g.poly for g in G.components], subs)])


def wide_source(n, extra):
    """n source polynomials in n + extra variables, the extra ones in every slot."""
    nv = n + extra
    return [P.variable(i, nv) + P.variable(n + i % extra, nv).scale(Q(1, 1))
            - P.variable(i, nv) * P.variable(nv - 1, nv) for i in range(n)]


@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in (2, 3, 4)])
def test_tree_amplitudes_match_per_tree_recursion(n, d, complex_couplings):
    w = complex_couplings(300 + 10 * n + d, n, d)
    order = 4 if n < 3 else 3  # keeps the whole test under ~1 s
    u = [P.variable(i, n) for i in range(n)]
    for tree in enumerate_trees(d, order):
        assert tree_amplitude(tree, w) == reference_amplitude(tree, w, u)
    G = tree_oracle_inverse(w, order)
    assert G == reference_oracle(w, order, u)
    if (n, d) == (2, 3):
        # leaves at another source: the library's series composed onto it
        source = wide_source(n, 2)
        expected = reference_oracle(w, order, source)
        assert on_source(G, source) == expected
        assert on_source(formal_inverse_fixed_point(w, order), source) == expected


def rebuilt(tree):
    """A tree equal to ``tree`` made of fresh objects, leaves included."""
    return PlaneTree(tuple(rebuilt(c) for c in tree.children))


def test_rebuilt_trees_hit_the_amplitude_memo(complex_couplings):
    # The memo is keyed by value: a tree built apart from the enumeration,
    # down to a bare PlaneTree() leaf, gets the enumerated tree's entry.
    w, u = complex_couplings(77, 2, 4), [P.variable(0, 2), P.variable(1, 2)]
    assert tree_amplitude(PlaneTree(), w) == u
    amp = polyred.series._amplitudes(w)
    for tree in enumerate_trees(4, 3):
        copy = rebuilt(tree)
        assert copy == tree and copy is not tree and hash(copy) == hash(tree)
        assert tree_amplitude(copy, w) == reference_amplitude(tree, w, u)
        assert amp(copy) is amp(tree)


def test_tree_oracle_memo_lives_per_call(complex_couplings):
    # Two tensors of one shape share every tree, so a memo that outlived a call
    # would hand the second tensor the first one's amplitudes.
    w1, w2 = complex_couplings(41, 2, 3), complex_couplings(42, 2, 3)
    assert w1 != w2
    G1, G2 = (formal_inverse_fixed_point(w, 4) for w in (w1, w2))
    assert G1 != G2
    assert tree_oracle_inverse(w1, 4) == G1
    assert tree_oracle_inverse(w2, 4) == G2
    assert tree_oracle_inverse(w1, 4) == G1
    # One tensor, two sources, each composed onto the library's series in u.
    s1 = [P.variable(0, 2), P.zero(2)]
    s2 = wide_source(2, 1)
    G = formal_inverse_fixed_point(w1, 4)
    G1, G2 = (on_source(G, s) for s in (s1, s2))
    assert on_source(tree_oracle_inverse(w1, 4), s1) == G1 == reference_oracle(w1, 4, s1)
    assert on_source(tree_oracle_inverse(w1, 4), s2) == G2 == reference_oracle(w1, 4, s2)
    tree = next(t for t in enumerate_trees(3, 2) if t.theta_weight == 2)
    for s in (s1, s2):
        assert compose_many(tree_amplitude(tree, w1), s) == reference_amplitude(tree, w1, s)


def mirror(tree):
    """``tree`` with the children of every vertex in reverse order."""
    return PlaneTree(tuple(mirror(c) for c in reversed(tree.children)))


def unordered(tree):
    """The shape of ``tree`` up to child order: the sorted tuple of its children's."""
    return tuple(sorted(unordered(c) for c in tree.children))


def test_mirror_trees_share_one_amplitude(complex_couplings):
    # A vertex sums every ordering of each index multiset, so reversing the
    # children at every vertex leaves each amplitude as it is; one amplitude
    # function contracts the pair once.  The reference has no memo, so it
    # confirms the symmetry on its own.
    u = [P.variable(0, 2), P.variable(1, 2)]
    for seed in (61, 62):
        w = complex_couplings(seed, 2, 4)
        amp = polyred.series._amplitudes(w)
        trees = list(enumerate_trees(4, 4))
        assert sum(1 for t in trees if mirror(t) != t) == 52
        for tree in trees:
            assert amp(mirror(tree)) is amp(tree)
            assert amp(tree) == reference_amplitude(tree, w, u) \
                == reference_amplitude(mirror(tree), w, u)


@pytest.mark.parametrize("d, plane, shapes", [(2, 22, 7), (3, 52, 16), (4, 59, 19)])
def test_tree_oracle_contracts_each_unordered_shape_once(d, plane, shapes, monkeypatch,
                                                         complex_couplings):
    # Every plane tree to weight 4 is enumerated, but each unordered shape is
    # contracted once: one amplitude vector per shape is handed out, and no
    # product starts from the constant 1.
    trees = list(enumerate_trees(d, 4))
    assert len(trees) == plane and len({unordered(t) for t in trees}) == shapes
    w = complex_couplings(70 + d, 2, d)
    G = formal_inverse_fixed_point(w, 4)
    handed = []
    real = polyred.series._amplitudes

    def recording(w):
        amp = real(w)

        def wrapped(tree):
            handed.append(amp(tree))
            return handed[-1]
        return wrapped

    def refuse(nvars):
        raise AssertionError("a product started from the constant 1")

    monkeypatch.setattr(polyred.series, "_amplitudes", recording)
    monkeypatch.setattr(Polynomial, "one", staticmethod(refuse))
    assert tree_oracle_inverse(w, 4) == G
    assert len(handed) == plane
    assert len({id(a) for a in handed}) == shapes


def test_tree_oracle_shares_no_routine_with_the_fixed_point(monkeypatch, complex_couplings):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the fixed-point engine")

    w = complex_couplings(9, 2, 4)
    G = formal_inverse_fixed_point(w, 4)
    monkeypatch.setattr(polyred.series, "compose_many", refuse)
    monkeypatch.setattr(polyred.series, "truncated_fixed_point", refuse)
    monkeypatch.setattr(CouplingTensor, "graded_nonlinearity", refuse)
    with pytest.raises(AssertionError):
        formal_inverse_fixed_point(w, 4)
    assert tree_oracle_inverse(w, 4) == G


@pytest.mark.parametrize("order", [0, 1, 5])
def test_formal_inverse_composes_once_per_fixed_point_round(order, monkeypatch, complex_couplings):
    # one compose_many per round of the truncated fixed point, none after it
    calls = []
    real = polyred.series.compose_many

    def counting(*args):
        calls.append(1)
        return real(*args)

    w = complex_couplings(5, 2, 3)
    monkeypatch.setattr(polyred.series, "compose_many", counting)
    G = formal_inverse_fixed_point(w, order)
    assert len(calls) == order
    assert G == tree_oracle_inverse(w, order)
