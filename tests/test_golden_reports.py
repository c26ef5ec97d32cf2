"""CLI reports on fixed system files, compared byte for byte with committed copies.

Each case runs one command from ``tests/golden`` (reports name their input
file relative to it) and compares stdout with ``tests/golden/reports/<name>.json``
and the exit code with the expected one.  A change to any verdict, witness,
detail string, grade or JSON layout fails here.  To regenerate a report after
an intended change, run ``python -m polyred.cli <args> > reports/<name>.json``
in ``tests/golden`` and review the diff.
"""

from pathlib import Path

import pytest

from polyred.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("invert_trees", "invert normalized.json --order 4 --oracle trees", 0),
    # complex couplings of degrees 2 and 3; most trees at order 6 have mirrors
    ("invert_trees_sparse3", "invert sparse3.json --order 6 --oracle trees", 0),
    ("partition", "partition normalized.json --order 4", 0),
    # sparse couplings in three variables: J of W~ has zero entries
    ("partition_sparse3", "partition sparse3.json --order 5", 0),
    ("partial0_member", "check-partial member.json --n1 0", 0),
    ("partial0_nonmember", "check-partial nonmember.json --n1 0", 1),
    ("partial0_undetermined", "check-partial member.json --n1 0 --cap 2", 1),
    ("partial0_tame43", "check-partial tame43.json --n1 0", 0),
    ("partial1_member", "check-partial block3.json --n1 1", 0),
    ("partial0_lin_member", "check-partial member.json --n1 0 --lin", 0),
    ("partial0_lin_tame43", "check-partial tame43.json --n1 0 --lin", 0),
    ("partial1_lin_member", "check-partial block3.json --n1 1 --lin", 0),
    ("partial1_lin_nonmember", "check-partial nonmember.json --n1 1 --lin", 1),
    ("eliminate1", "eliminate block3.json --n1 1", 0),
    ("eliminate0", "eliminate member.json --n1 0", 0),
    # an affine block that fails the gate: det J_R = 1 - i*z1^2
    ("eliminate1_affine_singular", "eliminate affine_singular.json --n1 1", 1),
    ("partial1_lin_affine_singular", "check-partial affine_singular.json --n1 1 --lin", 1),
    # the eliminated system H(.; 0) decides: z1^2 has no linear part, and
    # z1 - z1^2 fails its certificate at the bound
    ("partial1_hsing", "check-partial hsing.json --n1 1", 1),
    ("partial1_hfail", "check-partial hfail.json --n1 1", 1),
    # every acceptance criterion's report line, pinned as one report
    ("verify_all", "verify-all", 0),
]


@pytest.mark.parametrize("name, args, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, args, code, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(args.split()) == code
    expected = (GOLDEN / "reports" / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected
