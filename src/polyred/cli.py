"""Command-line front end; all mathematics lives in the library modules.

Exit codes: 0 when the command's checked property holds (membership,
identity, corpus consistency, artifact written), 1 when a check fails or a
verdict is negative/undetermined, 2 on usage or input errors.  Reports are
deterministic for fixed inputs, flags and seed; timing is attached only when
--timing is passed so byte-identical output stays the default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import acceptance
from .couplings import CouplingTensor
from .elimination import (
    BlockNotInvertibleError,
    build_H,
    invert_R,
    is_j_partial,
    is_jlin_partial,
    split,
)
from .family import corpus_report, sample_corpus, family_system
from .gaussian import Gaussian
from .io import (
    dumps_canonical,
    polynomial_to_dict,
    read_system,
    system_to_dict,
    write_system,
)
from .jacobian import MEMBER, MembershipVerdict, is_jlin
from .poly import Polynomial, PolySystem
from .reduction import ALGEBRAIC, QFT, phi_algebraic, phi_qft_system
from .series import (
    formal_inverse_fixed_point,
    inversion_defect,
    log_partition_function,
    tree_oracle_inverse,
    z_det_identity_check,
)

ENV_ORDER = "POLYRED_ORDER"


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (else exit code 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, Gaussian):
        return {"kind": "constant", "value": str(w)}
    if isinstance(w, Polynomial):
        return {"kind": "polynomial", "pretty": str(w), "poly": polynomial_to_dict(w)}
    if isinstance(w, PolySystem):
        return {"kind": "system", "pretty": str(w), "system": system_to_dict(w)}
    return {"kind": "text", "value": str(w)}


def _verdict_json(v: MembershipVerdict) -> dict:
    return {"verdict": v.verdict, "witness": _witness_json(v.witness), "detail": v.detail}


def _render_pretty(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{k}:")
                lines.append(_render_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}{k}: {val}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
        return "\n".join(lines)
    return f"{pad}{obj}"


def _emit(report: dict, args) -> None:
    if args.format == "pretty":
        text = _render_pretty(report) + "\n"
    else:
        text = dumps_canonical(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check_jlin(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    v = is_jlin(F)
    report = {
        "command": "check-jlin",
        "input": args.system,
        "verdict": v.verdict,
        "constant": str(v.witness) if v.verdict == MEMBER else None,
        "offending_term": str(v.witness) if v.verdict != MEMBER else None,
        "detail": v.detail,
    }
    return report, 0 if v.verdict == MEMBER else 1


def _cmd_check_partial(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    if args.lin:
        v = is_jlin_partial(F, args.n1, cap=args.cap)
    else:
        v = is_j_partial(F, args.n1, cap=args.cap)
    report = {
        "command": "check-partial",
        "input": args.system,
        "n1": args.n1,
        "lin": bool(args.lin),
        **_verdict_json(v),
    }
    return report, 0 if v.verdict == MEMBER else 1


def _cmd_eliminate(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    sp = split(F, args.n1)
    R = PolySystem(list(sp.r_components), nvars=sp.N) if sp.n2 else \
        PolySystem([], nvars=sp.N)
    try:
        rinv = invert_R(sp, cap=args.cap)
    except BlockNotInvertibleError as err:
        report = {
            "command": "eliminate", "input": args.system, "n1": args.n1,
            "status": "not_invertible",
            "witness": _witness_json(err.witness),
            "detail": str(err),
        }
        return report, 1
    if not rinv.certified:
        return ({"command": "eliminate", "input": args.system, "n1": args.n1,
                 "status": rinv.status, "detail": rinv.detail}, 1)
    H = build_H(sp, rinv)
    report = {
        "command": "eliminate",
        "input": args.system,
        "n1": args.n1,
        "status": "ok",
        "variable_note": ("R uses the ambient variables; in Rinv and H the trailing "
                          "block means the target coordinates y2"),
        "R": system_to_dict(R),
        "Rinv": system_to_dict(PolySystem(list(rinv.components), nvars=sp.N)),
        "H": system_to_dict(H),
    }
    return report, 0


def _cmd_reduce(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    if args.variant == ALGEBRAIC:
        rs = phi_algebraic(F)
    else:
        rs = phi_qft_system(F)
    prov = rs.provenance()
    report = {
        "command": "reduce",
        "input": args.system,
        "variant": args.variant,
        "dimension": rs.system.nvars,
        "degree_bound": rs.system.degree_bound,
    }
    if args.out_system:
        write_system(args.out_system, rs.system, provenance=prov)
        report["written"] = args.out_system
    else:
        report["system"] = system_to_dict(rs.system, provenance=prov)
    return report, 0


def _series_grades(G) -> dict:
    return {str(r): [polynomial_to_dict(p) for p in G.grade(r)]
            for r in range(G.order + 1)}


def _cmd_invert(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    w = CouplingTensor.from_system(F)
    order = args.order
    G = formal_inverse_fixed_point(w, order)
    defect_zero = inversion_defect(w, G).is_zero()
    report = {
        "command": "invert",
        "input": args.system,
        "order": order,
        "grades": _series_grades(G),
        "grades_pretty": {str(r): [str(p) for p in G.grade(r)]
                          for r in range(order + 1)},
        "defect_zero": defect_zero,
    }
    ok = defect_zero
    if args.oracle == "trees":
        equal = tree_oracle_inverse(w, order) == G
        report["oracle"] = {"kind": "trees", "equal": equal}
        ok = ok and equal
    return report, 0 if ok else 1


def _cmd_partition(args) -> tuple[dict, int]:
    F, _ = read_system(args.system)
    w = CouplingTensor.from_system(F)
    order = args.order
    lnZ = log_partition_function(w, order)
    ok, residual = z_det_identity_check(w, order)
    report = {
        "command": "partition",
        "input": args.system,
        "order": order,
        "log_z_grades": {str(r): str(lnZ.grade(r)) for r in range(order + 1)},
        "z_det_identity": ok,
        "first_nonzero_residual_grade": residual.min_grade(),
    }
    return report, 0 if ok else 1


def _cmd_example_s4(args) -> tuple[dict, int]:
    report = corpus_report(args.d, args.count, args.seed)
    report = {"command": "example-s4", **report}
    if args.emit:
        inst = sample_corpus(args.d, args.count, args.seed)[0]
        write_system(args.emit, family_system(inst), provenance={
            "family": {"d": inst.d,
                       "a1": [str(x) for x in inst.a1],
                       "a2": [str(x) for x in inst.a2]}})
        report["emitted"] = args.emit
    return report, 0 if report["passed"] else 1


def _cmd_verify_all(args) -> tuple[dict, int]:
    criteria = []
    for criterion in acceptance.ALL_CRITERIA:
        t0 = time.monotonic()
        r = criterion(args.seed)
        entry = {"name": r.name, "passed": r.passed, "detail": r.detail}
        if args.timing:
            entry["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
        criteria.append(entry)
    report = {
        "command": "verify-all",
        "seed": args.seed,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
    return report, 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyred",
        description="Exact polynomial-system toolkit: Jacobian tests, partial "
                    "elimination, degree reduction and graded formal inverses.")
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--timing", action="store_true",
                    help="attach elapsed_ms to the report (and to each verify-all criterion)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-jlin", help="constant Jacobian determinant test")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_check_jlin)

    p = sub.add_parser("check-partial", help="partial-class membership with n1 parameters")
    p.add_argument("system")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--lin", action="store_true",
                   help="determinant-based class instead of restricted-inverse class")
    p.add_argument("--cap", type=_int_at_least(0), default=None)
    p.set_defaults(fn=_cmd_check_partial)

    p = sub.add_parser("eliminate", help="emit R, its block inverse and H")
    p.add_argument("system")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--cap", type=_int_at_least(0), default=None)
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("reduce", help="degree-lowering dimension-raising embedding")
    p.add_argument("system")
    p.add_argument("--variant", choices=(ALGEBRAIC, QFT), required=True)
    p.add_argument("--out-system", help="write the reduced system to this file")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("invert", help="graded formal inverse of a normalized system")
    p.add_argument("system")
    p.add_argument("--order", type=_int_at_least(0), default=os.environ.get(ENV_ORDER, "5"),
                   help=f"truncation order (default ${ENV_ORDER} or 5)")
    p.add_argument("--oracle", choices=("trees",), default=None)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("partition", help="log partition series and determinant identity")
    p.add_argument("system")
    p.add_argument("--order", type=_int_at_least(1), default=os.environ.get(ENV_ORDER, "5"),
                   help=f"truncation order (default ${ENV_ORDER} or 5)")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("example-s4", help="two-variable family corpus run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(1), default=100)
    p.add_argument("--emit", help="also write the first corpus instance as a system file")
    p.set_defaults(fn=_cmd_example_s4)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    t0 = time.monotonic()
    try:
        report, code = args.fn(args)
        if args.timing:
            report["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
        _emit(report, args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
