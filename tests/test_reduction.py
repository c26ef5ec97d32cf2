import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from polyred.couplings import CouplingTensor, tuple_of_exps
from polyred.elimination import elimination_variety, invert_R, split
from polyred.gaussian import Q
from polyred.poly import Polynomial, PolySystem, compose_many
from polyred.reduction import (
    ALGEBRAIC,
    QFT,
    aux_index,
    euler_weighted_gradient,
    h_recovery_check,
    is_in_image_of_phi,
    phi,
    phi_algebraic,
    phi_qft,
    phi_qft_system,
    reduce_to_quadratic,
    reduced_inverse_check,
    transport_determinant_check,
    verify_theorem_main,
)
from polyred.samples import (
    random_couplings,
    random_rational,
    random_zero_constant_system,
)
from polyred.series import GradedPoly, compose_poly, formal_inverse_fixed_point

P = Polynomial


def test_aux_index_layout():
    assert aux_index(1, 0, 0) == 1
    assert aux_index(2, 0, 0) == 2
    assert aux_index(2, 1, 1) == 5
    with pytest.raises(IndexError):
        aux_index(2, 2, 0)


def test_phi_algebraic_cubic_one_variable():
    z = P.variable(0, 1)
    F = PolySystem([z - (z ** 3).scale(5)], degree_bound=3)
    rs = phi_algebraic(F)
    v0, v1 = P.variable(0, 2), P.variable(1, 2)
    assert rs.system == PolySystem([v1 * v0, v1 - 1 + (v0 ** 2).scale(5)])
    assert rs.system.degree_bound == 2
    assert rs.variant == ALGEBRAIC


def test_phi_algebraic_identity_source():
    z = P.variable(0, 1)
    rs = phi_algebraic(PolySystem([z], degree_bound=3))
    v0, v1 = P.variable(0, 2), P.variable(1, 2)
    assert rs.system == PolySystem([v1 * v0, v1 - 1])


def test_phi_algebraic_preconditions():
    z = P.variable(0, 1)
    with pytest.raises(ValueError):
        phi_algebraic(PolySystem([z], degree_bound=2))
    with pytest.raises(ValueError):
        phi_algebraic(PolySystem([z + 1], degree_bound=3))


def test_phi_qft_cubic_one_variable():
    w = CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): Q(7)})
    rs = phi_qft_system(w.to_system())
    v0, v1 = P.variable(0, 2), P.variable(1, 2)
    assert rs.system == PolySystem([v0 - v0 * v1, v1 - (v0 ** 2).scale(7)])


def test_phi_qft_zero_couplings():
    wt = phi_qft(CouplingTensor(1, 3))
    assert wt.entries == {(2, 0, (0, 1)): Q(1)}
    wt2 = phi_qft(CouplingTensor(2, 3))
    assert set(wt2.entries) == {(2, i, tuple(sorted((j, aux_index(2, i, j)))))
                                for i in range(2) for j in range(2)}


def test_phi_qft_rejects_quadratic_couplings():
    w = CouplingTensor(1, 3, {(2, 0, (0, 0)): Q(1)})
    with pytest.raises(ValueError):
        phi_qft(w)


def test_phi_qft_middle_degrees_copied():
    w = CouplingTensor(1, 5, {(3, 0, (0, 0, 0)): Q(2), (4, 0, (0,) * 4): Q(3),
                              (5, 0, (0,) * 5): Q(1)})
    wt = phi_qft(w)
    assert wt.entries[(3, 0, (0, 0, 0))] == Q(2)
    assert wt.entries[(4, 0, (0,) * 4)] == Q(3)        # k = d-1 copy rule
    assert wt.entries[(4, 1, (0,) * 4)] == Q(1)        # relocated top coupling
    assert (5, 0, (0,) * 5) not in wt.entries
    assert wt.max_degree == 4


def test_image_degree_and_block_shape(rng):
    for d in (3, 4):
        F = random_zero_constant_system(rng, 2, d)
        rs = phi_algebraic(F)
        assert rs.system.degree() <= d - 1
        n = 2
        for i in range(n):
            for j in range(n):
                comp = rs.system.components[aux_index(n, i, j)]
                # affine in the auxiliary block with identity linear part
                aux_part = comp - P.variable(aux_index(n, i, j), rs.system.nvars)
                assert all(not any(e[n:]) for e in aux_part.terms)


def test_round_trip_algebraic(rng):
    for d in (3, 4, 5):
        for n in (1, 2):
            F = random_zero_constant_system(rng, n, d)
            rs = phi_algebraic(F)
            chk = is_in_image_of_phi(rs.system, n, ALGEBRAIC)
            assert chk.in_image
            assert chk.preimage == F


def test_round_trip_qft(rng):
    for d in (3, 4):
        for n in (1, 2):
            w = random_couplings(rng, n, d, quadratic_free=True)
            rs = phi_qft_system(w.to_system(d))
            chk = is_in_image_of_phi(rs.system, n, QFT)
            assert chk.in_image
            assert chk.couplings == w or chk.preimage == w.to_system(d)


def test_not_in_image():
    assert not is_in_image_of_phi(PolySystem.identity(2), 1, ALGEBRAIC).in_image
    assert not is_in_image_of_phi(PolySystem.identity(2), 1, QFT).in_image
    with pytest.raises(ValueError):
        is_in_image_of_phi(PolySystem.identity(3), 1, ALGEBRAIC)
    # tamper with the bilinear block
    z = P.variable(0, 1)
    rs = phi_algebraic(PolySystem([z - z ** 3], degree_bound=3))
    comps = list(rs.system.components)
    comps[0] = comps[0] + P.variable(0, 2)
    assert not is_in_image_of_phi(PolySystem(comps, nvars=2), 1, ALGEBRAIC).in_image
    # tamper with the gradient structure (n = 2 so integrability can fail)
    F2 = PolySystem([P.variable(0, 2) - P.monomial((0, 3), 1), P.variable(1, 2)],
                    degree_bound=3)
    rs2 = phi_algebraic(F2)
    comps2 = list(rs2.system.components)
    comps2[aux_index(2, 0, 0)] = comps2[aux_index(2, 0, 0)] + P.monomial(
        (0, 2, 0, 0, 0, 0), 1)
    assert not is_in_image_of_phi(PolySystem(comps2, nvars=6), 2, ALGEBRAIC).in_image


def test_image_of_a_degree_two_preimage_is_refused():
    # (z1 - z1 z2, z2 - z1) recovers the candidate z1 - z1^2, which phi_qft rejects
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    chk = is_in_image_of_phi(PolySystem([z1 - z1 * z2, z2 - z1]), 1, QFT)
    assert not chk.in_image and chk.preimage is None
    assert "quadratic" in chk.detail


def test_constant_auxiliary_residue_is_not_an_image():
    # (z1 - z1 z2, z2 - 1) recovers a candidate with zero linear part
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    for variant in (ALGEBRAIC, QFT):
        assert not is_in_image_of_phi(PolySystem([z1 - z1 * z2, z2 - 1]), 1, variant).in_image


def test_unknown_variant_is_an_error():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    F = PolySystem([z1 - z2 ** 3, z2], degree_bound=3)
    for call in (phi, verify_theorem_main, h_recovery_check, transport_determinant_check):
        with pytest.raises(ValueError, match="unknown variant"):
            call(F, "algebriac")
    with pytest.raises(ValueError, match="unknown variant"):
        is_in_image_of_phi(phi(F, ALGEBRAIC).system, 2, "algebriac")


def _image_by_elimination(Ft, n, variant):
    """The preimage of Ft read off H(.; 0) of the elimination, or None if Ft has none.

    An image's auxiliary block is z_aux minus terms in z1 only, and H(.; 0)
    of an image is its source; the degree bound of a ``qft`` source is
    either its degree or, without a top coupling, one more.
    """
    N = n * (n + 1)
    for a in range(n, N):
        if any(any(e[n:]) for e in (P.variable(a, N) - Ft.components[a]).terms):
            return None
    sp = split(Ft, n)
    H0 = PolySystem(compose_many(sp.s1_components, elimination_variety(sp, invert_R(sp))), nvars=n)
    for bound in {max(3, H0.degree()), max(3, H0.degree() + 1)}:
        F = PolySystem(H0.components, nvars=n, degree_bound=bound)
        try:
            if phi(F, variant).system == Ft:
                return F
        except ValueError:
            pass
    return None


def _tampered(rng, Ft, n, d):
    """Two copies of Ft with one extra monomial: in z1 only, then with an auxiliary variable."""
    N = n * (n + 1)
    out = []
    for aux in (False, True):
        exps = [0] * N
        for _ in range(rng.randint(0, d - 1)):
            exps[rng.randrange(N if aux else n)] += 1
        if aux:
            exps[rng.randrange(n, N)] += 1
        c = random_rational(rng) or Q(1)
        comps = list(Ft.components)
        k = rng.randrange(N)
        comps[k] = comps[k] + P.monomial(exps, c)
        out.append(PolySystem(comps, nvars=N))
    return out


def test_image_membership_matches_elimination():
    rng = random.Random(8)
    positives = negatives = 0
    for _ in range(100):
        n, d = rng.choice((1, 2)), rng.choice((3, 4, 5))
        sources = [(ALGEBRAIC, random_zero_constant_system(rng, n, d)),
                   (QFT, random_couplings(rng, n, d, quadratic_free=True).to_system(d))]
        for variant, F in sources:
            Ft = phi(F, variant).system
            chk = is_in_image_of_phi(Ft, n, variant)
            assert chk.in_image and chk.preimage == F
            for G in [Ft] + _tampered(rng, Ft, n, d):
                for name in (ALGEBRAIC, QFT):
                    chk = is_in_image_of_phi(G, n, name)
                    truth = _image_by_elimination(G, n, name)
                    assert chk.in_image == (truth is not None), (name, str(G))
                    if chk.in_image:
                        assert chk.preimage == truth
                        assert phi(chk.preimage, name).system == G
                        positives += 1
                    else:
                        assert chk.preimage is None
                        negatives += 1
    assert positives > 200 and negatives > 800  # some tampered copies stay images


def test_h_recovery_both_variants(rng):
    for n, d in ((1, 3), (2, 3), (2, 4)):
        F = random_zero_constant_system(rng, n, d)
        assert h_recovery_check(F, ALGEBRAIC)
        w = random_couplings(rng, n, d, quadratic_free=True)
        assert h_recovery_check(w.to_system(d), QFT)


def test_cross_variant_h_coincidence(rng):
    # same quadratic-free source: both images eliminate back to the source
    w = random_couplings(rng, 2, 3, quadratic_free=True)
    F = w.to_system(3)
    assert h_recovery_check(F, ALGEBRAIC)
    assert h_recovery_check(F, QFT)
    # the images themselves differ (different constant shift in the aux block)
    assert phi_algebraic(F).system != phi_qft_system(F).system


def test_transport_determinant_constant_is_one(rng):
    for _ in range(3):
        F = random_zero_constant_system(rng, 2, 3)
        rep = transport_determinant_check(F, ALGEBRAIC)
        assert rep["equal"]
        w = random_couplings(rng, 2, 3, quadratic_free=True)
        assert transport_determinant_check(w.to_system(3), QFT)["equal"]


def test_verify_theorem_main_examples():
    z1, z2 = P.variable(0, 2), P.variable(1, 2)
    member = PolySystem([z1 - z2 ** 3, z2], degree_bound=3)
    assert verify_theorem_main(member, ALGEBRAIC)["passed"]
    assert verify_theorem_main(member, QFT)["passed"]
    nonmember = PolySystem([z1 ** 3, z2], degree_bound=3)
    rep = verify_theorem_main(nonmember, ALGEBRAIC)
    assert rep["passed"] and rep["lin_source"] == "non_member"
    padded_identity = PolySystem([z1, z2], degree_bound=3)
    assert verify_theorem_main(padded_identity, ALGEBRAIC)["passed"]
    assert verify_theorem_main(padded_identity, QFT)["passed"]


def test_reduced_inverse_check_closed_form():
    c = Q(1)
    w = CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): c})
    rep = reduced_inverse_check(w, 5)
    assert rep["passed"]
    # explicit auxiliary grades: Gt_aux = theta * c * G^2
    G = formal_inverse_fixed_point(w, 5)
    wt = phi_qft(w)
    # the auxiliary coordinate pinned to zero: Gt composed onto (u, 0, theta)
    pinned = [P.variable(0, 2), P.zero(2), P.variable(1, 2)]
    Gt = [GradedPoly(5, 1, p) for p in
          compose_many([g.poly for g in formal_inverse_fixed_point(wt, 5).components], pinned)]
    Gsq = compose_poly(P.monomial((2,), 1), [G[0]], 5)
    assert Gt[1] == Gsq * GradedPoly.of_poly(P.one(1), 5, grade=1)
    assert Gt[1].grade(1) == P.monomial((2,), 1)
    assert Gt[1].grade(3) == P.monomial((4,), 2)


def test_reduced_inverse_check_zero_couplings():
    rep = reduced_inverse_check(CouplingTensor(1, 3), 4)
    assert rep["passed"]


def test_reduced_inverse_check_two_vars(rng):
    w = random_couplings(rng, 2, 4, quadratic_free=True)
    assert reduced_inverse_check(w, 4)["passed"]


def test_reduce_to_quadratic_driver():
    z = P.variable(0, 1)
    F = PolySystem([z - z ** 4], degree_bound=4)
    stages = reduce_to_quadratic(F)
    assert [s.system.degree_bound for s in stages] == [3, 2]
    assert stages[-1].system.nvars == 6  # 1 -> 2 -> 6


def test_single_stage_check_at_n1806_under_a_memory_limit():
    # The third stage of (z1 + z2^5, z2) lives on N = 1806 variables, and its
    # trailing block of 1764 auxiliaries has the identity as block Jacobian.
    # A single-level check of a stage k >= 2 image answers non_member; in a
    # subprocess capped at 3 GB of address space it must answer in time.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from polyred.elimination import is_jlin_partial\n"
            "from polyred.poly import Polynomial, PolySystem\n"
            "from polyred.reduction import reduce_to_quadratic\n"
            "z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)\n"
            "stages = reduce_to_quadratic(PolySystem([z1 + z2 ** 5, z2]))\n"
            "print([s.system.nvars for s in stages])\n"
            "v = is_jlin_partial(stages[2].system, 42)\n"
            "print(v.verdict)\n"
            "print(v.detail)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[6, 42, 1806]", "non_member", "determinant is non-constant on the elimination variety"]


# -- Jacobian slices against the entry-by-entry loop formulas --------------------


def loop_euler_gradient(F):
    n = F.nvars
    psi = [[P.zero(n) for _ in range(n)] for _ in range(n)]
    for i, p in enumerate(F.components):
        for c in range(1, p.degree() + 1):
            for j in range(n):
                psi[i][j] = psi[i][j] + p.homogeneous_part(c).partial(j).scale(Q(Fraction(1, c)))
    return psi


def loop_phi_qft(w):
    """Middle couplings kept, unit bilinear couplings added, and slice (i, j) of
    the top coupling, (1/d) dW_d,i/dz_j, relocated onto auxiliary component (i, j)."""
    n, d = w.dims, w.max_degree
    entries = {(k, i, t): c for (k, i, t), c in w.entries.items() if k < d}
    for i in range(n):
        for j in range(n):
            entries[(2, i, tuple(sorted((j, aux_index(n, i, j)))))] = Q(1)
            for exps, c in w.coupling_poly(i, d).partial(j).scale(Q(Fraction(1, d))).terms.items():
                entries[(d - 1, aux_index(n, i, j), tuple_of_exps(exps))] = c
    return CouplingTensor(n * (n + 1), d - 1, entries)


@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in (2, 3, 4)])
def test_jacobian_slices_match_loop_formulas(n, d, complex_couplings):
    w = complex_couplings(100 * n + d, n, d)
    # a constant and a non-identity linear part, which the Euler weights must handle too
    F = PolySystem([p + P.constant(Q(1, -1), n) + P.variable((i + 1) % n, n).scale(Q(2))
                    for i, p in enumerate(w.to_system().components)], degree_bound=d)
    assert euler_weighted_gradient(F) == loop_euler_gradient(F)
    if d == 2:
        with pytest.raises(ValueError):
            phi_qft(w)
    else:
        wq = complex_couplings(100 * n + d, n, d, quadratic_free=True)
        assert phi_qft(wq) == loop_phi_qft(wq)
