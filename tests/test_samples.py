"""The seeded corpora are pinned: every generator reproduces its draws bit for bit.

Reports echo their seeds, so a run must be reproducible from the seed alone.
One sha256 over the canonical dumps of every generator at fixed seeds guards
the values drawn and the order of the draws; a rewrite of the samplers that
reorders or adds a single draw changes it.
"""

import hashlib
import json
import random

from polyred import acceptance
from polyred.family import sample_corpus
from polyred.io import system_to_dict
from polyred.samples import (
    curated_invertible_pairs,
    curated_non_invertible,
    random_affine_split_system,
    random_couplings,
    random_normalized_system,
    random_zero_constant_system,
)

CORPUS_SHA256 = "b7c213a24f6f7ac4c7263aeee39a8536e44f6dd4db926e85ca6143e16c06edb0"


def _couplings(w) -> dict:
    return {"dims": w.dims, "max_degree": w.max_degree,
            "entries": sorted([k, i, list(t), str(c.re), str(c.im)]
                              for (k, i, t), c in w.entries.items())}


def _instance(inst) -> dict:
    return {"d": inst.d, "a1": [str(x) for x in inst.a1], "a2": [str(x) for x in inst.a2]}


def corpus_dump() -> dict:
    shapes = [(n, d) for n in (1, 2, 3) for d in (2, 3, 4)]
    rng = random.Random(101)
    couplings = [_couplings(random_couplings(rng, n, d, quadratic_free))
                 for quadratic_free in (False, True) for n, d in shapes]
    couplings.append(_couplings(random_couplings(rng, 2, 3, density=0.8)))
    rng = random.Random(102)
    zero_constant = [system_to_dict(random_zero_constant_system(rng, n, d))
                     for n in (1, 2, 3) for d in (1, 2, 3, 4)]
    rng = random.Random(103)
    normalized = [system_to_dict(random_normalized_system(rng, n, d, quadratic_free))
                  for quadratic_free in (False, True) for n, d in shapes]
    rng = random.Random(104)
    affine = [system_to_dict(random_affine_split_system(rng, n1, n2, deg))
              for n1 in (1, 2) for n2 in (1, 2) for deg in (2, 3, 4)]
    family = [_instance(inst) for d in (2, 3, 4) for inst in sample_corpus(d, 40, 105 + d)]
    generic, normalized_members = acceptance._theorem_corpus(acceptance.DEFAULT_SEED)
    return {
        "random_couplings": couplings,
        "random_zero_constant_system": zero_constant,
        "random_normalized_system": normalized,
        "random_affine_split_system": affine,
        "family.sample_corpus": family,
        "acceptance._series_corpus": [_couplings(w) for w in
                                      acceptance._series_corpus(acceptance.DEFAULT_SEED)],
        "acceptance._theorem_corpus": [[system_to_dict(F) for F in generic],
                                       [system_to_dict(F) for F in normalized_members]],
        "curated_invertible_pairs": [[system_to_dict(F), system_to_dict(Finv)]
                                     for F, Finv in curated_invertible_pairs()],
        "curated_non_invertible": [system_to_dict(F) for F in curated_non_invertible()],
    }


def test_seeded_corpora_are_pinned():
    text = json.dumps(corpus_dump(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256
