"""The acceptance suite: every check the library promises, run end to end.

Each criterion function returns a :class:`CheckResult`; :data:`ALL_CRITERIA`
lists the whole battery in order.  All checks are exact (zero tolerance) and
deterministic given the seed.  The same functions back the test suite and
the ``verify-all`` command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .couplings import CouplingTensor
from .elimination import invert_R, is_j_partial, schur_identity_check, split
from .family import (
    closed_sum_form,
    corpus_report,
    reference_form_deviation,
    sample_specialized_instance,
    specialized_jacobian,
)
from .gaussian import ZERO, Gaussian, Q
from .jacobian import (
    MEMBER,
    NON_MEMBER,
    LinearPartError,
    certify_polynomial_inverse,
    drop_degree_zero,
    jacobian_matrix,
)
from .poly import Polynomial, PolySystem
from .samples import (
    curated_invertible_pairs,
    curated_non_invertible,
    random_affine_split_system,
    random_couplings,
    random_normalized_system,
    random_poly,
    random_zero_constant_system,
)
from .reduction import (
    ALGEBRAIC,
    QFT,
    phi_algebraic,
    phi_qft_system,
    reduced_inverse_check,
    verify_theorem_main,
)
from .series import (
    formal_inverse_fixed_point,
    inversion_defect,
    theta_homogeneity_check,
    tree_oracle_inverse,
    z_det_identity_check,
)

DEFAULT_SEED = 20260811


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _series_corpus(seed: int, count: int = 100) -> list[CouplingTensor]:
    rng = random.Random(seed)
    out = [
        CouplingTensor(1, 2, {(2, 0, (0, 0)): Q(1)}),           # Catalan instance
        CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): Q("1/2")}),
        CouplingTensor(2, 2, {(2, 0, (1, 1)): Q(1), (2, 1, (0, 0)): Q(-1)}),
    ]
    while len(out) < count:
        n = rng.choice((1, 2))
        d = rng.choice((2, 3, 4))
        w = random_couplings(rng, n, d)
        out.append(w)
    return out[:count]


def criterion_1_inversion_round_trip(seed: int = DEFAULT_SEED) -> CheckResult:
    """F(G(u)) - u vanishes through grading order 5 on 100 random systems."""
    bad = 0
    corpus = _series_corpus(seed)
    for w in corpus:
        G = formal_inverse_fixed_point(w, 5)
        if not inversion_defect(w, G).is_zero():
            bad += 1
    return CheckResult("1 inversion round-trip",
                       bad == 0, f"{len(corpus)} systems, order 5, {bad} defects")


def criterion_2_tree_oracle(seed: int = DEFAULT_SEED) -> CheckResult:
    """Plane-tree enumeration reproduces the fixed point; Catalan cross-check."""
    rng = random.Random(seed + 1)
    catalan = [1, 1, 2, 5, 14, 42]
    w_cat = CouplingTensor(1, 2, {(2, 0, (0, 0)): Q(1)})
    G = formal_inverse_fixed_point(w_cat, 5)
    for r, c in enumerate(catalan):
        expect = Polynomial.monomial((r + 1,), Q(c))
        if G[0].grade(r) != expect:
            return CheckResult("2 tree-oracle equivalence", False,
                               f"grade {r} is not the Catalan coefficient {c}")
    instances = []
    for n in (1, 2):
        for d in (2, 3, 4):
            instances.append(random_couplings(rng, n, d))
            instances.append(random_couplings(rng, n, d, density=0.8))
    mism = 0
    for w in instances:
        order = 5
        if tree_oracle_inverse(w, order) != formal_inverse_fixed_point(w, order):
            mism += 1
    return CheckResult("2 tree-oracle equivalence", mism == 0,
                       f"Catalan 1,1,2,5,14,42 and {len(instances)} instances at order 5, "
                       f"{mism} mismatches")


def criterion_3_partition_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """Z(0,u) * det J_F(G(u)) = 1 through order 4 on the criterion-1 corpus."""
    bad = 0
    corpus = _series_corpus(seed)
    for w in corpus:
        ok, _ = z_det_identity_check(w, 4)
        if not ok:
            bad += 1
    return CheckResult("3 partition identity", bad == 0,
                       f"{len(corpus)} systems, order 4, {bad} failures")


def _theorem_corpus(seed: int):
    rng = random.Random(seed + 2)
    generic, normalized = [], []
    for _ in range(50):
        d = rng.choice((3, 4))
        generic.append(random_zero_constant_system(rng, 2, d))
        normalized.append(random_normalized_system(rng, 2, d, quadratic_free=True))
    # A few known members to exercise the member direction of the transport.
    z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    members = [
        PolySystem([z1 - z2 ** 3, z2], degree_bound=3),
        PolySystem([z1, z2 - z1 ** 3], degree_bound=3),
        PolySystem([z1 - (z1 + z2) ** 3, z2 + (z1 + z2) ** 3], degree_bound=3),
        PolySystem([z1 - (z1 + z2) ** 4, z2 + (z1 + z2) ** 4], degree_bound=4),
        PolySystem([z1, z2], degree_bound=3),
    ]
    return generic + members, normalized + members


def criterion_4_transport_lin(seed: int = DEFAULT_SEED) -> CheckResult:
    """Constant-determinant membership transports across both reductions,
    and :func:`is_in_image_of_phi` recovers each source from its image."""
    generic, normalized = _theorem_corpus(seed)
    bad = []
    for F in generic:
        r = verify_theorem_main(F, ALGEBRAIC)
        if not (r["lin_agrees"] and r["image_recovered"]):
            bad.append((ALGEBRAIC, str(F)))
    for F in normalized:
        r = verify_theorem_main(F, QFT)
        if not (r["lin_agrees"] and r["image_recovered"]):
            bad.append((QFT, str(F)))
    total = len(generic) + len(normalized)
    return CheckResult("4 reduction transport (determinant side)", not bad,
                       f"{total} instances across both variants, {len(bad)} disagreements")


def criterion_5_transport_invertibility(seed: int = DEFAULT_SEED) -> CheckResult:
    """Invertibility transports across the reduction on curated corpora."""
    problems = []
    invertible = curated_invertible_pairs()
    for F, Finv in invertible:
        base = drop_const(F)
        rs = phi_algebraic(base)
        v = is_j_partial(rs.system, 2)
        if v.verdict != MEMBER:
            problems.append(f"member lost: {F}")
            continue
        # The witness must be the restricted inverse, certified on the slice.
        P = v.witness
        image = rs.system.substitute(list(P.components))
        expected = [Polynomial.variable(i, 2) for i in range(2)] + \
                   [Polynomial.zero(2)] * (rs.system.nvars - 2)
        if list(image.components) != expected:
            problems.append(f"slice composition failed: {F}")
        if list(P.components[:2]) != list(Finv.components):
            problems.append(f"restricted inverse differs from the known one: {F}")
    non_invertible = curated_non_invertible()
    for F in non_invertible:
        try:
            cert = certify_polynomial_inverse(F)
            cert_verdict = cert.verdict
        except LinearPartError:
            cert_verdict = NON_MEMBER
        rs = phi_algebraic(drop_const(F))
        v = is_j_partial(rs.system, 2)
        if not (cert_verdict == NON_MEMBER and v.verdict == NON_MEMBER):
            problems.append(f"non-member mismatch: {F}: {cert_verdict} vs {v.verdict}")
    return CheckResult("5 reduction transport (invertibility side)", not problems,
                       f"{len(invertible)} invertible + {len(non_invertible)} non-invertible "
                       f"instances; {len(problems)} problems"
                       + (f": {problems[:2]}" if problems else ""))


def drop_const(F: PolySystem) -> PolySystem:
    out = drop_degree_zero(F)
    if out.degree_bound < 3:
        out = PolySystem(list(out.components), nvars=out.nvars, degree_bound=3)
    return out


def criterion_6_schur_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """The determinant factorization holds on reduction images and random splits."""
    rng = random.Random(seed + 3)
    generic, normalized = _theorem_corpus(seed)
    bad = 0
    images = [phi_algebraic(F).system for F in generic[:25]] + \
             [phi_qft_system(F).system for F in normalized[:25]]
    for S in images:
        sp = split(S, 2)
        ok, _ = schur_identity_check(sp, invert_R(sp))
        if not ok:
            bad += 1
    randoms = 0
    while randoms < 50:
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        S = random_affine_split_system(rng, n1, n2, deg=3)
        sp = split(S, n1)
        rinv = invert_R(sp)
        ok, _ = schur_identity_check(sp, rinv)
        if not ok:
            bad += 1
        randoms += 1
    return CheckResult("6 block determinant factorization", bad == 0,
                       f"{len(images)} reduction images + 50 random affine splits, "
                       f"{bad} failures")


def criterion_7_family_reproduction(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed forms agree with the classifiers; substituted determinant checked."""
    problems = []
    for d in (2, 3, 4):
        rep = corpus_report(d, 500, seed + d)
        if not rep["passed"]:
            problems.append(f"d={d}: corpus disagreement "
                            f"{rep['jlin_disagreements'][:3]}"
                            f"{rep['partial_disagreements'][:3]}")
    rng = random.Random(seed + 4)
    for d in (2, 3, 4):
        for _ in range(40):
            inst = sample_specialized_instance(d, rng)
            truth = specialized_jacobian(inst)
            if truth != closed_sum_form(inst):
                problems.append(f"d={d}: closed sum deviates for {inst}")
                continue
            # Termwise shape: coefficient k(d-1)-d^2 at exponent (d-1)(d+1-k);
            # those exponents are distinct over k and never zero, so they
            # cannot collide with each other or with the constant term.
            for k in range(d + 1):
                coeff = inst.a1[k] * (inst.a2[d] ** (d - k)) * Gaussian(k * (d - 1) - d * d)
                if truth.coefficient(((d - 1) * (d + 1 - k),)) != coeff:
                    problems.append(f"d={d}, k={k}: termwise coefficient mismatch")
            if not inst.a1[0].is_zero() and not inst.a2[d].is_zero():
                e = (d - 1) * (d + 1)
                if truth.coefficient((e,)).is_zero():
                    problems.append(f"d={d}: expected a term at exponent {e}")
    return CheckResult("7 family reproduction", not problems,
                       "500 instances per degree 2..4, closed forms vs classifiers, "
                       f"substituted determinant termwise; {len(problems)} problems"
                       + (f": {problems[:2]}" if problems else ""))


def criterion_7d_display_template(seed: int = DEFAULT_SEED) -> CheckResult:
    """The deviation of the circulated closed-form template is reported exactly.

    The template's k >= 1 summands sit at exponents (d-1)(d-1-k), and its
    k = 0 summand a[1,0] a^d z^((d-1)(d+1)) has a unit factor; direct
    substitution puts every summand c_k = a[1,k] a^(d-k) (k(d-1) - d^2) at
    (d-1)(d+1-k).  The library reports the difference instead of patching
    either side, so this check holds :func:`reference_form_deviation` to
    that promise on every instance: its truth is the closed sum, its
    difference is template - truth and equals a prediction written here
    from the two formulas, and it matches exactly when that prediction
    vanishes.  At least one instance must deviate, so a template quietly
    rewritten into the true form fails the check.
    """
    rng = random.Random(seed + 5)
    problems = []
    deviating = 0
    for d in (2, 3, 4):
        for _ in range(10):
            inst = sample_specialized_instance(d, rng)
            dev = reference_form_deviation(inst)
            terms: dict[tuple, Gaussian] = {}
            for k in range(d + 1):
                c = inst.a1[k] * (inst.a2[d] ** (d - k)) * Gaussian(k * (d - 1) - d * d)
                if k >= 1 and (d - 1) * (d - 1 - k) >= 0:
                    e = ((d - 1) * (d - 1 - k),)
                    terms[e] = terms.get(e, ZERO) + c
                e = ((d - 1) * (d + 1 - k),)
                terms[e] = terms.get(e, ZERO) - c
            e = ((d - 1) * (d + 1),)
            terms[e] = terms.get(e, ZERO) + inst.a1[0] * (inst.a2[d] ** d)
            predicted = Polynomial(1, terms)
            where = f"d={d}, a1={[str(x) for x in inst.a1]}, a={inst.a2[d]}"
            if dev["truth"] != closed_sum_form(inst):
                problems.append(f"{where}: truth is not the closed sum")
            if dev["difference"] != dev["template"] - dev["truth"]:
                problems.append(f"{where}: difference is not template - truth")
            if dev["difference"] != predicted:
                problems.append(f"{where}: difference {dev['difference']} "
                                f"!= predicted {predicted}")
            if dev["matches"] != predicted.is_zero():
                problems.append(f"{where}: matches={dev['matches']} but the "
                                f"predicted difference is {predicted}")
            if not dev["matches"]:
                deviating += 1
    if deviating == 0:
        problems.append("no instance deviates: the template reports no difference")
    return CheckResult("7d circulated template deviation reported", not problems,
                       f"30 instances (d=2..4), {deviating} deviate from "
                       f"substitution; {len(problems)} problems"
                       + (f": {problems[:2]}" if problems else ""))


def criterion_8_reduced_inverse(seed: int = DEFAULT_SEED) -> CheckResult:
    """Reduced-system inverse equals the source inverse, plus the closed
    auxiliary form, at orders 5 (n=1, d=3) and 4 (n=2, d=4)."""
    rng = random.Random(seed + 6)
    checks = []
    w13 = CouplingTensor(1, 3, {(3, 0, (0, 0, 0)): Q(3)})
    checks.append(reduced_inverse_check(w13, 5))
    checks.append(reduced_inverse_check(random_couplings(rng, 1, 3, quadratic_free=True), 5))
    for _ in range(3):
        w24 = random_couplings(rng, 2, 4, quadratic_free=True)
        checks.append(reduced_inverse_check(w24, 4))
    bad = [c for c in checks if not c["passed"]]
    return CheckResult("8 reduced-system inverse equality", not bad,
                       f"{len(checks)} runs, {len(bad)} failures")


def criterion_9_theta_homogeneity(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 7)
    lams = [Q(2), Q(Fraction(3, 2)), Q(-1)]
    instances = [CouplingTensor(1, 2, {(2, 0, (0, 0)): Q(1)})]
    for _ in range(6):
        instances.append(random_couplings(rng, rng.choice((1, 2)), rng.choice((2, 3, 4))))
    bad = 0
    for w in instances:
        for lam in lams:
            if not theta_homogeneity_check(w, 4, lam):
                bad += 1
    return CheckResult("9 grading homogeneity", bad == 0,
                       f"{len(instances)} systems x lambda in {{2, 3/2, -1}}, order 4, "
                       f"{bad} failures")


def criterion_10_euler_and_chain_rule(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 8)
    bad = 0
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        d = rng.randint(1, 4)
        A = random_poly(rng, n, [d], 0.5, dense=True)
        euler = Polynomial.zero(n)
        for i in range(n):
            euler = euler + Polynomial.variable(i, n) * A.partial(i)
        if euler.scale(Fraction(1, d)) != A:
            bad += 1
    for _ in range(100):
        n = 2
        F = random_zero_constant_system(rng, n, 3)
        G = random_zero_constant_system(rng, n, 3)
        lhs = jacobian_matrix(F.after(G)).det()
        rhs = jacobian_matrix(G).det() * \
            jacobian_matrix(F).det().compose(list(G.components))
        if lhs != rhs:
            bad += 1
    return CheckResult("10 homogeneous-weight and chain-rule identities", bad == 0,
                       f"100 weighted-gradient + 100 chain-rule instances, {bad} failures")


ALL_CRITERIA = [
    criterion_1_inversion_round_trip,
    criterion_2_tree_oracle,
    criterion_3_partition_identity,
    criterion_4_transport_lin,
    criterion_5_transport_invertibility,
    criterion_6_schur_identity,
    criterion_7_family_reproduction,
    criterion_7d_display_template,
    criterion_8_reduced_inverse,
    criterion_9_theta_homogeneity,
    criterion_10_euler_and_chain_rule,
]
