"""Acceptance battery: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
checks are exact; there are no tolerances anywhere.

``test_criterion_7d_display_template`` checks the deviation report for a
circulated closed-form template.  The template stays as circulated and does
not match direct substitution (the declared ground truth, also confirmed by
an independent derivation in test_family); the check asserts that the
library reports that difference exactly, instance by instance, and that at
least one instance deviates.

Each criterion's report line is pinned to its text, and the random streams
it draws from are pinned by a sha256 of their final states: a sampler
rewrite that adds, drops or reorders a draw fails here even when the
criterion still passes.
"""

import hashlib
import random
from unittest import mock

from polyred import acceptance, reduction


class _TrackedRandom(random.Random):
    """A ``random.Random`` that remembers every instance made while patched in."""

    made: list = []

    def __init__(self, seed=None):
        super().__init__(seed)
        _TrackedRandom.made.append(self)


def _line(result):
    return f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"


def _run(fn, line, streams):
    _TrackedRandom.made = []
    with mock.patch.object(random, "Random", _TrackedRandom):
        result = fn(acceptance.DEFAULT_SEED)
    print(_line(result))
    assert result.passed, result.detail
    assert _line(result) == line
    states = repr([r.getstate() for r in _TrackedRandom.made]).encode()
    assert hashlib.sha256(states).hexdigest()[:16] == streams
    return result


def test_criterion_1_inversion_round_trip():
    _run(acceptance.criterion_1_inversion_round_trip,
         "[PASS] 1 inversion round-trip: 100 systems, order 5, 0 defects",
         "53d5f9d888b8bd89")


def test_criterion_2_tree_oracle():
    _run(acceptance.criterion_2_tree_oracle,
         "[PASS] 2 tree-oracle equivalence: Catalan 1,1,2,5,14,42 and 12 instances at order 5, "
         "0 mismatches",
         "4e594915451e424b")


def test_criterion_3_partition_identity():
    _run(acceptance.criterion_3_partition_identity,
         "[PASS] 3 partition identity: 100 systems, order 4, 0 failures",
         "53d5f9d888b8bd89")


def test_criterion_4_transport_lin():
    _run(acceptance.criterion_4_transport_lin,
         "[PASS] 4 reduction transport (determinant side): 110 instances across both variants, "
         "0 disagreements",
         "f706c18287f3f408")


def test_criterion_4_counts_an_unrecovered_image(monkeypatch):
    def refuse(Ft, n, variant):
        return reduction.ImageCheck(False, detail="refused")

    monkeypatch.setattr(reduction, "is_in_image_of_phi", refuse)
    result = acceptance.criterion_4_transport_lin(acceptance.DEFAULT_SEED)
    assert not result.passed
    assert result.detail == "110 instances across both variants, 110 disagreements"


def test_criterion_5_transport_invertibility():
    _run(acceptance.criterion_5_transport_invertibility,
         "[PASS] 5 reduction transport (invertibility side): 20 invertible + 20 non-invertible "
         "instances; 0 problems",
         "4f53cda18c2baa0c")


def test_criterion_6_schur_identity():
    _run(acceptance.criterion_6_schur_identity,
         "[PASS] 6 block determinant factorization: 50 reduction images + 50 random affine "
         "splits, 0 failures",
         "d4f7dc898f809211")


def test_criterion_7_family_reproduction():
    _run(acceptance.criterion_7_family_reproduction,
         "[PASS] 7 family reproduction: 500 instances per degree 2..4, closed forms vs "
         "classifiers, substituted determinant termwise; 0 problems",
         "b17f4d44449ea543")


def test_criterion_7d_display_template():
    # Deviation report checked exactly against a prediction; see the module docstring.
    _run(acceptance.criterion_7d_display_template,
         "[PASS] 7d circulated template deviation reported: 30 instances (d=2..4), "
         "29 deviate from substitution; 0 problems",
         "d8abacf7ae05bea5")


def test_criterion_8_reduced_inverse():
    _run(acceptance.criterion_8_reduced_inverse,
         "[PASS] 8 reduced-system inverse equality: 5 runs, 0 failures",
         "b9880c465cb5d561")


def test_criterion_9_theta_homogeneity():
    _run(acceptance.criterion_9_theta_homogeneity,
         "[PASS] 9 grading homogeneity: 7 systems x lambda in {2, 3/2, -1}, order 4, "
         "0 failures",
         "1950aa9a6b6aeb03")


def test_criterion_10_euler_and_chain_rule():
    _run(acceptance.criterion_10_euler_and_chain_rule,
         "[PASS] 10 homogeneous-weight and chain-rule identities: 100 weighted-gradient + "
         "100 chain-rule instances, 0 failures",
         "c079d9a3e0f13253")
