"""The two-variable degree-d family and its closed-form classifiers.

The family is F1 = z1 - sum_k a[1,k] z1^k z2^(d-k), F2 = z2 - sum_k a[2,k]
z1^k z2^(d-k) with k = 0..d.  Everything the general classifiers decide for
these systems can also be decided by explicit conditions on the
coefficients; this module implements both and compares them on sampled
corpora, exactly.

Derived facts used here (each is re-verified against machine differentiation
by the test suite):

* det J_F = 1 - sum_k (a[1,k+1](k+1) + a[2,k](d-k)) z1^k z2^(d-1-k)
          + sum_{k,l} a[1,k] a[2,l] d(k-l) z1^(k+l-1) z2^(2d-k-l-1).
* With a[2,k] = 0 for k < d the trailing block has the closed inverse
  y2 + a[2,d] z1^d, and substituting it gives
  det J_F(z1, a[2,d] z1^d) = 1 + sum_{k=0..d} a[1,k] a[2,d]^(d-k)
  (k(d-1) - d^2) z1^((d-1)(d+1-k)).
  A variant template with exponents (d-1)(d-1-k) and a unit k = 0
  coefficient is floating around; it does not match direct substitution.
  :func:`reference_form_deviation` quantifies the difference instead of
  patching either side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .elimination import is_j_partial, is_jlin_partial
from .gaussian import Gaussian, ZERO
from .jacobian import MEMBER, NON_MEMBER, is_jlin, jacobian_matrix
from .poly import Polynomial, PolySystem
from .samples import random_rational


@dataclass(frozen=True)
class FamilyInstance:
    d: int
    a1: tuple[Gaussian, ...]
    a2: tuple[Gaussian, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("family degree starts at 2")
        if len(self.a1) != self.d + 1 or len(self.a2) != self.d + 1:
            raise ValueError(f"need {self.d + 1} coefficients per row")

    @staticmethod
    def of(d: int, a1, a2) -> "FamilyInstance":
        return FamilyInstance(d, tuple(Gaussian.coerce(x) for x in a1),
                              tuple(Gaussian.coerce(x) for x in a2))


def family_system(inst: FamilyInstance) -> PolySystem:
    d = inst.d
    comps = []
    for idx, row in ((0, inst.a1), (1, inst.a2)):
        p = Polynomial.variable(idx, 2)
        for k in range(d + 1):
            if not row[k].is_zero():
                p = p - Polynomial.monomial((k, d - k), row[k])
        comps.append(p)
    return PolySystem(comps, nvars=2, degree_bound=d)


def closed_form_jlin_conditions(inst: FamilyInstance) -> bool:
    """Coefficient conditions equivalent to a constant Jacobian determinant.

    Linear-in-a conditions: a[1,k+1](k+1) + a[2,k](d-k) = 0 for k < d.
    Quadratic conditions: sum_k a[1,k] a[2,m-k] d(2k-m) = 0 for every m >= 1.
    """
    d, a1, a2 = inst.d, inst.a1, inst.a2
    for k in range(d):
        if not (a1[k + 1] * (k + 1) + a2[k] * (d - k)).is_zero():
            return False
    for m in range(1, 2 * d + 1):
        acc = ZERO
        for k in range(max(0, m - d), min(d, m) + 1):
            acc = acc + a1[k] * a2[m - k] * Gaussian(d * (2 * k - m))
        if not acc.is_zero():
            return False
    return True


def closed_form_partial_conditions(inst: FamilyInstance) -> bool:
    """Coefficient conditions for the n1 = 1 partial class.

    The trailing block is invertible for every z1 exactly when a[2,k] = 0 for
    all k < d; on top of that a[1,d] = 0 and either all a[1,k<d] vanish or
    a[2,d] does.
    """
    d, a1, a2 = inst.d, inst.a1, inst.a2
    if any(not a2[k].is_zero() for k in range(d)):
        return False
    if not a1[d].is_zero():
        return False
    return all(a1[k].is_zero() for k in range(d)) or a2[d].is_zero()


def specialized_jacobian(inst: FamilyInstance) -> Polynomial:
    """det J_F(z1, a[2,d] z1^d) by direct substitution (the ground truth)."""
    d, a2 = inst.d, inst.a2
    if any(not a2[k].is_zero() for k in range(d)):
        raise ValueError("needs a[2,k] = 0 for k < d so the block inverse is closed-form")
    det = jacobian_matrix(family_system(inst)).det()
    z = Polynomial.variable(0, 1)
    return det.compose([z, Polynomial.monomial((d,), a2[d])])


def closed_sum_form(inst: FamilyInstance) -> Polynomial:
    """Equivalent closed sum for the substituted determinant.

    1 + sum_{k=0..d} a[1,k] a[2,d]^(d-k) (k(d-1) - d^2) z^((d-1)(d+1-k));
    agrees termwise with :func:`specialized_jacobian`.
    """
    d, a1, a2 = inst.d, inst.a1, inst.a2
    if any(not a2[k].is_zero() for k in range(d)):
        raise ValueError("needs a[2,k] = 0 for k < d")
    out = Polynomial.one(1)
    for k in range(d + 1):
        coeff = a1[k] * (a2[d] ** (d - k)) * Gaussian(k * (d - 1) - d * d)
        if not coeff.is_zero():
            out = out + Polynomial.monomial(((d - 1) * (d + 1 - k),), coeff)
    return out


def reference_form_template(inst: FamilyInstance) -> Polynomial:
    """The circulated closed-form template, read only where exponents are valid.

    1 + sum_{k=1..d} a[1,k] a[2,d]^(d-k) (k(d-1) - d^2) z^((d-1)(d-1-k))
      + a[1,0] a[2,d]^d z^((d-1)(d+1)),
    with any negative-exponent summand skipped.
    """
    d, a1, a2 = inst.d, inst.a1, inst.a2
    out = Polynomial.one(1)
    for k in range(1, d + 1):
        e = (d - 1) * (d - 1 - k)
        if e < 0:
            continue
        coeff = a1[k] * (a2[d] ** (d - k)) * Gaussian(k * (d - 1) - d * d)
        if not coeff.is_zero():
            out = out + Polynomial.monomial((e,), coeff)
    tail = a1[0] * (a2[d] ** d)
    if not tail.is_zero():
        out = out + Polynomial.monomial(((d - 1) * (d + 1),), tail)
    return out


def reference_form_deviation(inst: FamilyInstance) -> dict:
    """Compare the template against direct substitution; report, never patch."""
    truth = specialized_jacobian(inst)
    template = reference_form_template(inst)
    diff = template - truth
    return {"matches": diff.is_zero(), "difference": diff,
            "truth": truth, "template": template}


# -- corpus ---------------------------------------------------------------

def sample_instance(d: int, rng: random.Random) -> FamilyInstance:
    """One random instance; pool draws hit degenerate strata, dense draws generic ones."""
    dense = rng.random() >= 0.5
    draw = lambda: random_rational(rng, dense)
    return FamilyInstance.of(
        d,
        [draw() for _ in range(d + 1)],
        [draw() for _ in range(d + 1)],
    )


def sample_specialized_instance(d: int, rng: random.Random) -> FamilyInstance:
    """One pool-valued instance with a[2,k] = 0 for k < d (closed block inverse)."""
    a1 = [random_rational(rng) for _ in range(d + 1)]
    return FamilyInstance.of(d, a1, [0] * d + [random_rational(rng)])


def separation_witnesses(d: int) -> tuple[FamilyInstance, FamilyInstance]:
    """(member of the partial class only, member of the classical class only).

    The first is F = (z1 - z1 z2^(d-1), z2): its determinant 1 - z2^(d-1) is
    non-constant, but on the elimination variety z2 = 0 it is 1.  The second
    is the shear F = z - v l(z)^d with l = z1 + z2, v = (1, -1): l(F) = l, so
    it has the exact inverse y + v l(y)^d, while its trailing block contains
    z2^d and is not invertible for every z1.
    """
    zeros = [0] * (d + 1)
    a1 = list(zeros)
    a1[1] = 1
    partial_only = FamilyInstance.of(d, a1, zeros)
    binom1 = [math.comb(d, k) for k in range(d + 1)]
    binom2 = [-math.comb(d, k) for k in range(d + 1)]
    classical_only = FamilyInstance.of(d, binom1, binom2)
    return partial_only, classical_only


def curated_instances(d: int) -> list[FamilyInstance]:
    if d < 2:
        raise ValueError("family degree starts at 2")
    zeros = [0] * (d + 1)
    first_case = list(zeros)
    first_case[d] = Fraction(1, 2)
    second_case = list(zeros)
    second_case[0] = 1
    second_case[d - 1] = Fraction(-1, 2)
    bad_partial = list(zeros)
    bad_partial[d] = 1
    out = [
        FamilyInstance.of(d, zeros, zeros),
        FamilyInstance.of(d, zeros, first_case),      # (z1, z2 - a z1^d)
        FamilyInstance.of(d, second_case, zeros),     # (z1 - ..., z2)
        FamilyInstance.of(d, bad_partial, zeros),     # a[1,d] != 0
        FamilyInstance.of(d, second_case, first_case),  # both blocks active
    ]
    out.extend(separation_witnesses(d))
    return out


def sample_corpus(d: int, count: int, seed: int) -> list[FamilyInstance]:
    rng = random.Random(seed)
    out = curated_instances(d)
    while len(out) < count:
        out.append(sample_instance(d, rng))
    return out[:count]


def corpus_report(d: int, count: int, seed: int) -> dict:
    """Run closed forms against the general classifiers over a sampled corpus."""
    instances = sample_corpus(d, count, seed)
    jlin_disagreements = []
    partial_disagreements = []
    equality_disagreements = []
    containment_violations = []
    verdicts = []
    for idx, inst in enumerate(instances):
        F = family_system(inst)
        v_jlin = is_jlin(F)
        v_jlin_partial = is_jlin_partial(F, 1)
        v_j_partial = is_j_partial(F, 1)
        c_jlin = closed_form_jlin_conditions(inst)
        c_partial = closed_form_partial_conditions(inst)
        row = {
            "instance": idx,
            "closed_jlin": c_jlin,
            "is_jlin": v_jlin.verdict,
            "closed_partial": c_partial,
            "is_jlin_partial": v_jlin_partial.verdict,
            "is_j_partial": v_j_partial.verdict,
        }
        verdicts.append(row)
        if c_jlin != (v_jlin.verdict == MEMBER):
            jlin_disagreements.append(idx)
        if c_partial != (v_jlin_partial.verdict == MEMBER):
            partial_disagreements.append(idx)
        if v_jlin_partial.verdict != v_j_partial.verdict:
            equality_disagreements.append(idx)
        if v_jlin_partial.verdict == MEMBER and v_j_partial.verdict == NON_MEMBER:
            containment_violations.append(idx)
    partial_only, classical_only = separation_witnesses(d)
    sep = {
        "partial_not_classical": {
            "a1": [str(x) for x in partial_only.a1],
            "a2": [str(x) for x in partial_only.a2],
            "is_jlin": is_jlin(family_system(partial_only)).verdict,
            "is_jlin_partial": is_jlin_partial(family_system(partial_only), 1).verdict,
        },
        "classical_not_partial": {
            "a1": [str(x) for x in classical_only.a1],
            "a2": [str(x) for x in classical_only.a2],
            "is_jlin": is_jlin(family_system(classical_only)).verdict,
            "is_jlin_partial": is_jlin_partial(family_system(classical_only), 1).verdict,
        },
    }
    return {
        "d": d,
        "count": len(instances),
        "seed": seed,
        "verdicts": verdicts,
        "jlin_disagreements": jlin_disagreements,
        "partial_disagreements": partial_disagreements,
        "equality_disagreements": equality_disagreements,
        "containment_violations": containment_violations,
        "separation": sep,
        "passed": not (jlin_disagreements or partial_disagreements
                       or equality_disagreements or containment_violations)
                  and sep["partial_not_classical"]["is_jlin"] == NON_MEMBER
                  and sep["partial_not_classical"]["is_jlin_partial"] == MEMBER
                  and sep["classical_not_partial"]["is_jlin"] == MEMBER
                  and sep["classical_not_partial"]["is_jlin_partial"] == NON_MEMBER,
    }
