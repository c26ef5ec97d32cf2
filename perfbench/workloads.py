"""The three workloads: seeded inputs, the timed call, and its known answer.

Each workload is a list of :class:`Op`.  ``call`` is the only timed part and
the only part the trace sees.  ``check`` compares the output against an answer
fixed when the input was generated (by construction, by a closed form, or by
:mod:`exact`), and returns the outcome with the op's canonical output bytes,
which feed the run's digest.

The corpus is stratified, and every op has a fixed slot in it.  A slot fixes
the shape of its input (sizes, supports, exponents); the seed picks only the
coefficients.  So a run's cost barely depends on the seed, while its inputs
and outputs do.  Strata are interleaved, so a slow spell of the machine falls
on a mix of sizes rather than on one of them.

``lib`` is a namespace of freshly imported ``polyred`` modules.  Ops look a
library function up through it at call time, so the trace's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

import exact
from exact import ONE, ZERO, Poly, c_mul, c_neg, scalar

CORRECT, UNDETERMINED, WRONG = "correct", "undetermined", "wrong"

_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
         Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-1, 3)]


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, bytes]]


class Draw:
    """Random streams of one op slot: ``shape`` is fixed, ``value`` follows the seed."""

    def __init__(self, seed: int, slot: str):
        self.shape = random.Random(slot)
        self.value = random.Random(f"{seed}/{slot}")

    def coeff(self, cplx: bool):
        v = self.value
        return scalar(v.choice(_POOL), v.choice(_POOL) if cplx else 0)


def _monomials(n: int, k: int, variables=None) -> list[tuple[int, ...]]:
    out = []
    for t in combinations_with_replacement(variables if variables is not None else range(n), k):
        e = [0] * n
        for v in t:
            e[v] += 1
        out.append(tuple(e))
    return out


def _random_poly(draw, n, degrees, nterms, cplx, variables=None, lead=None) -> Poly:
    """Up to ``nterms`` distinct monomials with degrees in ``degrees``.

    One is ``lead`` if given, else a random one of the top degree.
    """
    top = _monomials(n, max(degrees), variables)
    rest = [e for k in degrees if k != max(degrees) for e in _monomials(n, k, variables)]
    first = lead or draw.shape.choice(top)
    pool = [e for e in top + rest if e != first]
    others = draw.shape.sample(pool, min(nterms - 1, len(pool)))
    return Poly(n, {e: draw.coeff(cplx) for e in [first] + others})


def _interleave(strata: list[list]) -> list:
    """Round-robin over strata."""
    out, queues = [], [list(s) for s in strata]
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def _to_system(lib, F: list[Poly], nvars: int, degree_bound: int | None = None):
    G = lib.gaussian.Gaussian
    comps = [lib.poly.Polynomial(nvars, {e: G(c[0], c[1]) for e, c in p.terms.items()})
             for p in F]
    return lib.poly.PolySystem(comps, nvars=nvars, degree_bound=degree_bound)


def _from_polyred(p) -> Poly:
    return Poly(p.nvars, {e: (c.re, c.im) for e, c in p.terms.items()})


def _canonical(lib, obj) -> bytes:
    return lib.io.dumps_canonical(obj).encode()


# -- series: the graded formal inverse ------------------------------------------

# (n, d, couplings, count per pass); a quarter of each stratum is complex.  The
# counts put the median inside the n = 2, d = 2 stratum and the 90th percentile
# inside the costliest one, so neither sits on a jump between strata.
SERIES_STRATA = [(1, 2, 1, 6), (1, 3, 2, 6), (1, 4, 3, 6),
                 (2, 2, 3, 24), (2, 3, 4, 6), (2, 4, 5, 12)]
SERIES_ORDER, ZDET_ORDER, ORACLE_ORDER = 6, 5, 4


def _couplings(lib, draw, n, d, nnz, cplx):
    slots = [(k, i, t) for k in range(2, d + 1) for i in range(n)
             for t in combinations_with_replacement(range(n), k)]
    top = [s for s in slots if s[0] == d]
    first = draw.shape.choice(top)
    chosen = [first] + draw.shape.sample([s for s in slots if s != first], nnz - 1)
    G = lib.gaussian.Gaussian
    entries = {s: G(*draw.coeff(cplx)) for s in chosen}
    return lib.couplings.CouplingTensor(n, d, entries)


def build_series(lib, seed: int, workdir: str) -> list[Op]:
    strata = []
    for n, d, nnz, count in SERIES_STRATA:
        ops = []
        for j in range(count):
            draw = Draw(seed, f"series/{n}/{d}/{j}")
            w = _couplings(lib, draw, n, d, nnz, cplx=j % 4 == 3)
            ops.append(Op(f"series n={n} d={d}", _series_call(lib, w),
                          _series_check(lib)))
        strata.append(ops)
    return _interleave(strata)


def _series_call(lib, w):
    def call():
        s = lib.series
        G = s.formal_inverse_fixed_point(w, SERIES_ORDER)
        defect_zero = s.inversion_defect(w, G).is_zero()
        zdet_ok, _ = s.z_det_identity_check(w, ZDET_ORDER)
        oracle_equal = (s.tree_oracle_inverse(w, ORACLE_ORDER)
                        == s.formal_inverse_fixed_point(w, ORACLE_ORDER))
        return G, defect_zero, zdet_ok, oracle_equal
    return call


def _series_check(lib):
    def check(out):
        G, defect_zero, zdet_ok, oracle_equal = out
        grades = {str(r): [lib.io.polynomial_to_dict(p) for p in G.grade(r)]
                  for r in range(G.order + 1)}
        ok = defect_zero is True and zdet_ok is True and oracle_equal is True
        return (CORRECT if ok else WRONG), _canonical(lib, {
            "grades": grades, "defect_zero": defect_zero,
            "z_det_identity": zdet_ok, "oracle_equal": oracle_equal})
    return check


# -- transport: membership across the degree reductions ---------------------------

# (path, kind, degree, terms per component, count per pass).  Half are known
# members.  The cheap d = 4 generic maps and the costly d = 4 tame maps are
# equally many, so the median falls among the d = 3 strata, and the 90th
# percentile inside the tame d = 4 stratum.
TRANSPORT_STRATA = [("algebraic", "generic", 4, 2, 6), ("qft", "generic", 4, 2, 6),
                    ("algebraic", "generic", 3, 3, 5), ("qft", "generic", 3, 2, 5),
                    ("qft", "shear", 3, 1, 5), ("algebraic", "tame", 3, 1, 5),
                    ("qft", "shear", 4, 1, 3), ("algebraic", "tame", 4, 1, 9)]


def _shear_step(i: int, p: Poly):
    """z_i -> z_i + p(z), where p does not involve z_i."""
    return ("shear", i, p)


def _linear(draw, n: int, cplx: bool) -> list:
    """Lower-bidiagonal shears, then a diagonal scaling: a linear map as steps.

    The shape is fixed so that it always mixes an upper-triangular map's
    nonlinearity into every component; a random shape sometimes leaves the
    map triangular, and then its cost drops a hundredfold.
    """
    steps = [_shear_step(i + 1, Poly.var(i, n) * draw.coeff(False)) for i in range(n - 1)]
    steps.append(("scale", [draw.coeff(cplx) for _ in range(n)]))
    return steps


def _apply(step, X: list[Poly]) -> list[Poly]:
    X = list(X)
    if step[0] == "shear":
        X[step[1]] = X[step[1]] + step[2].compose(X)
    else:
        X = [x * s for x, s in zip(X, step[1])]
    return X


def _undo(step, y: list[Poly]) -> list[Poly]:
    """The x with step(x) = y; a shear leaves the coordinates its p reads unchanged."""
    x = list(y)
    if step[0] == "shear":
        x[step[1]] = y[step[1]] - step[2].compose(y)
    else:
        x = [v * _c_inv(s) for v, s in zip(y, step[1])]
    return x


def _chain(n: int, steps) -> list[Poly]:
    F = exact.identity(n)
    for step in steps:
        F = _apply(step, F)
    return F


def _jacobian_verdict(det: Poly) -> str:
    """Membership by the Jacobian determinant: a nonzero constant, or not."""
    return "member" if det.degree() == 0 else "non_member"


def _transport_source(draw, path, kind, d, nterms) -> list[Poly]:
    n = 2
    if kind == "generic" and path == "algebraic":
        return [_random_poly(draw, n, range(1, d + 1), nterms, False) for _ in range(n)]
    if kind == "generic":  # normalized, quadratic-free: z - W with deg W in 3..d
        return [Poly.var(i, n) - _random_poly(draw, n, range(3, d + 1), nterms, False)
                for i in range(n)]
    if kind == "tame":  # L o (z1 + p(z2), z2) o M
        p = _random_poly(draw, n, range(2, d + 1), nterms, False, variables=[1], lead=(0, d))
        return _chain(n, _linear(draw, n, False) + [_shear_step(0, p)] + _linear(draw, n, False))
    # shear z - v g(l(z)) with l(v) = 0 and g of degrees 3..d: normalized, invertible
    a, b = draw.shape.choice([1, -1, 2]), draw.shape.choice([1, -1, 2, -2, 3])
    g = _random_poly(draw, 1, range(3, d + 1), nterms, False, lead=(d,))
    lz = Poly.var(0, n) * scalar(a) + Poly.var(1, n) * scalar(b)
    gl = g.compose([lz])
    return [Poly.var(0, n) - gl * scalar(b), Poly.var(1, n) + gl * scalar(a)]


def build_transport(lib, seed: int, workdir: str) -> list[Op]:
    strata = []
    for path, kind, d, nterms, count in TRANSPORT_STRATA:
        ops = []
        for j in range(count):
            F = _transport_source(Draw(seed, f"transport/{path}/{kind}/{d}/{j}"),
                                  path, kind, d, nterms)
            det = exact.jacobian_det(F)
            if kind != "generic" and _jacobian_verdict(det) != "member":
                raise AssertionError("generated tame map has a non-constant Jacobian")
            system = _to_system(lib, F, 2, degree_bound=d)
            ops.append(Op(f"transport {path} {kind} d={d}",
                          _transport_call(lib, system, path), _transport_check(lib, det)))
        strata.append(ops)
    return _interleave(strata)


def _transport_call(lib, F, path):
    def call():
        r = lib.reduction
        image = (r.phi_algebraic(F) if path == "algebraic" else r.phi_qft_system(F)).system
        v_source = lib.jacobian.is_jlin(F)
        v_image = lib.elimination.is_jlin_partial(image, F.nvars)
        sp = lib.elimination.split(image, F.nvars)
        schur_ok, _ = lib.elimination.schur_identity_check(sp, lib.elimination.invert_R(sp))
        return v_source, v_image, schur_ok
    return call


def _transport_check(lib, det: Poly):
    """Verdicts from det J_F, and witnesses that carry it across the reduction.

    A member's witnesses are the constant det J_F, on both sides.  A
    non-member's image witness is the determinant on the elimination variety,
    which the reduction makes equal to det J_F; its source witness is one of
    the terms of det J_F.
    """
    known = _jacobian_verdict(det)

    def witnesses_match(v_source, v_image) -> bool:
        if known == "member":
            return all((w.re, w.im) == det.constant() for w in (v_source.witness, v_image.witness))
        return (_from_polyred(v_image.witness) == det
                and _from_polyred(v_source.witness).terms.items() <= det.terms.items())

    def check(out):
        v_source, v_image, schur_ok = out
        ok = (v_source.verdict == known and v_image.verdict == known and schur_ok is True
              and witnesses_match(v_source, v_image))
        return (CORRECT if ok else WRONG), _canonical(lib, {
            "source": [v_source.verdict, v_source.detail],
            "image": [v_image.verdict, v_image.detail], "schur": schur_ok})
    return check


# -- verdicts: the command line on system files -------------------------------------

# Tame maps L o T o M + c with T triangular: (n, d, count per pass), a quarter
# complex.  check-jlin takes every size; check-partial --n1 0 inverts the whole
# map with the classical cap d^(n-1), so it takes only the sizes that finish in
# about a second (n = 3, d >= 3 and n = 4 run for minutes).
TAME_JLIN = [(2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 5, 3), (3, 2, 3), (3, 3, 3), (3, 4, 3),
             (4, 2, 3)]
TAME_PARTIAL = [(2, 2, 4), (2, 3, 12), (2, 4, 2), (3, 2, 2)]
FAMILY_PER_DEGREE = 6      # family instances per d in {2, 3, 4}, two ops each
ELIMINATE_COUNT = 10       # n = 3 systems through eliminate --n1 1
SHEAR_COUNT = 4            # (z1 - c z2^m, z2) with m in SHEAR_EXPONENTS
SHEAR_EXPONENTS = (600, 900)
PROBE_EXPONENT = 1200      # the known-defect probe, outside the timed ops


def _tame(draw, n, d, cplx):
    """L o T o M + c with T triangular; returns (F, F^-1(0))."""
    triangular = [
        _shear_step(i, _random_poly(draw, n, range(2, d + 1), 2, cplx,
                                    variables=range(i + 1, n), lead=_monomials(n, d, [i + 1])[0]))
        for i in range(n - 1)]
    steps = _linear(draw, n, cplx) + triangular + _linear(draw, n, cplx)
    c = [draw.coeff(cplx) for _ in range(n)]
    F = [p + Poly.const(ci, n) for p, ci in zip(_chain(n, steps), c)]
    point = [Poly.const(c_neg(ci), 0) for ci in c]
    for step in reversed(steps):
        point = _undo(step, point)
    return F, [q.constant() for q in point]


def _c_inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


def _family(draw, d: int, stratum: int):
    """(a1, a2) for F = z - sum_k a[.,k] z1^k z2^(d-k) from one of four strata."""
    zeros = [ZERO] * (d + 1)
    if stratum == 0:  # generic
        return [draw.coeff(False) for _ in zeros], [draw.coeff(False) for _ in zeros]
    if stratum == 1:  # rank-one shear z - s v l^d, l = z1 + z2, v = (1, -1): classical member
        s = draw.coeff(False)
        return ([c_mul(s, scalar(math.comb(d, k))) for k in range(d + 1)],
                [c_mul(s, scalar(-math.comb(d, k))) for k in range(d + 1)])
    a1, a2 = list(zeros), list(zeros)
    a2[d] = draw.coeff(False)
    if stratum == 2:  # partial-class member: a2[k<d] = 0, a1[d] = 0, a2[d] != 0 => a1 = 0
        return a1, a2
    for k in range(d):  # stratum 3: a1 below the top and a2[d] both nonzero: not partial
        a1[k] = draw.coeff(False)
    return a1, a2


def _family_system(d, a1, a2) -> list[Poly]:
    out = []
    for i, row in enumerate((a1, a2)):
        p = Poly.var(i, 2)
        for k in range(d + 1):
            p = p - Poly.monomial((k, d - k), row[k])
        out.append(p)
    return out


def _closed_jlin(d, a1, a2) -> bool:
    """Constant Jacobian determinant, from the coefficient conditions of the family."""
    for k in range(d):
        if exact.c_add(c_mul(a1[k + 1], scalar(k + 1)), c_mul(a2[k], scalar(d - k))) != ZERO:
            return False
    for m in range(1, 2 * d + 1):
        acc = ZERO
        for k in range(max(0, m - d), min(d, m) + 1):
            acc = exact.c_add(acc, c_mul(c_mul(a1[k], a2[m - k]), scalar(d * (2 * k - m))))
        if acc != ZERO:
            return False
    return True


def _closed_partial(d, a1, a2) -> bool:
    """n1 = 1 membership: a2[k<d] = 0, a1[d] = 0, and a1[k<d] = 0 or a2[d] = 0."""
    if any(c != ZERO for c in a2[:d]) or a1[d] != ZERO:
        return False
    return all(c == ZERO for c in a1[:d]) or a2[d] == ZERO


def _eliminate_system(draw, cplx):
    """S on (z1, z2, z3) whose trailing block R is tame for every z1; returns S, Rinv.

    R = (s (z2 + f(z1, z3)), z3 + g(z1)) with f quadratic in z3, so the block
    inverter runs its fixed point; H = S1(z1, Rinv) has degree up to 18.
    """
    n = 3
    f = _random_poly(draw, n, range(1, 3), 3, cplx, variables=[0, 2], lead=(0, 0, 2))
    g = _random_poly(draw, n, range(1, 4), 2, cplx, variables=[0])
    s = draw.coeff(cplx)
    z1, z2, z3 = exact.identity(n)
    R = [(z2 + f) * s, z3 + g]
    # Rinv(y2, y3; z1): y3 - g(z1), then y2 / s - f(z1, y3 - g(z1)).
    w3 = z3 - g
    w2 = z2 * _c_inv(s) - f.compose([z1, z2, w3])
    S1 = _random_poly(draw, n, range(1, 4), 5, cplx)
    return [S1] + R, [w2, w3]


def build_verdicts(lib, seed: int, workdir: str) -> list[Op]:
    files = _FileNamer(workdir)
    strata = []
    jlin, partial = [], []
    for n, d, count in TAME_JLIN:
        ops = []
        for j in range(count):
            F, _ = _tame(Draw(seed, f"jlin/{n}/{d}/{j}"), n, d, cplx=j % 4 == 3)
            det = exact.jacobian_det(F)
            if _jacobian_verdict(det) != "member":
                raise AssertionError("generated tame map has a non-constant Jacobian")
            ops.append(_cli_op(lib, files, f"check-jlin tame n={n} d={d}",
                               ["check-jlin", files.system(F, n)],
                               _expect_jlin(True, det.constant())))
        jlin.append(ops)
    for n, d, count in TAME_PARTIAL:
        ops = []
        for j in range(count):
            F, root = _tame(Draw(seed, f"partial/{n}/{d}/{j}"), n, d, cplx=j % 4 == 3)
            ops.append(_cli_op(lib, files, f"check-partial tame n={n} d={d}",
                               ["check-partial", files.system(F, n), "--n1", "0"],
                               _expect_point(root)))
        partial.append(ops)
    strata += [_interleave(jlin), _interleave(partial)]
    curated = []
    for S in lib.samples.curated_non_invertible():
        F = [_from_polyred(p) for p in S.components]
        if _jacobian_verdict(exact.jacobian_det(F)) != "non_member":
            raise AssertionError("curated non-invertible system has a constant Jacobian")
        path = files.system(F, 2)
        curated.append(_cli_op(lib, files, "check-partial curated non-invertible",
                               ["check-partial", path, "--n1", "0"], _expect_non_member()))
    strata.append(curated)
    family_jlin, family_partial = [], []
    for d in (2, 3, 4):
        for j in range(FAMILY_PER_DEGREE):
            a1, a2 = _family(Draw(seed, f"family/{d}/{j}"), d, j % 4)
            F = _family_system(d, a1, a2)
            path = files.system(F, 2)
            family_jlin.append(_cli_op(
                lib, files, f"check-jlin family d={d}", ["check-jlin", path],
                _expect_jlin(_closed_jlin(d, a1, a2), ONE)))
            family_partial.append(_cli_op(
                lib, files, f"check-partial family d={d}", ["check-partial", path, "--n1", "1"],
                _expect_restricted(F, 1) if _closed_partial(d, a1, a2) else _expect_non_member()))
    strata += [family_jlin, family_partial]
    eliminate = []
    for j in range(ELIMINATE_COUNT):
        S, rinv = _eliminate_system(Draw(seed, f"eliminate/{j}"), cplx=j % 4 == 3)
        path = files.system(S, 3)
        eliminate.append(_cli_op(lib, files, "eliminate n=3", ["eliminate", path, "--n1", "1"],
                                 _expect_elimination(S, rinv, 1)))
    strata.append(eliminate)
    shears = []
    for j in range(SHEAR_COUNT):
        draw = Draw(seed, f"shear/{j}")
        F = _shear(draw.shape.randint(*SHEAR_EXPONENTS), draw.coeff(cplx=j % 4 == 3))
        path = files.system(F, 2)
        shears.append(_cli_op(lib, files, "check-partial shear",
                              ["check-partial", path, "--n1", "1"], _expect_restricted(F, 1)))
    strata.append(shears)
    return _interleave(strata)


def _shear(m: int, c) -> list[Poly]:
    z1, z2 = exact.identity(2)
    return [z1 - Poly.monomial((0, m), c), z2]


def known_defect_probe(lib, workdir: str) -> Op:
    """(z1 - z2^1200, z2) through check-partial --n1 1: a member, but deep recursion."""
    F = _shear(PROBE_EXPONENT, ONE)
    files = _FileNamer(workdir, prefix="probe")
    path = files.system(F, 2)
    return _cli_op(lib, files, "check-partial shear probe",
                   ["check-partial", path, "--n1", "1"], _expect_restricted(F, 1))


class _FileNamer:
    """Writes input files into the work directory under short relative names."""

    def __init__(self, workdir: str, prefix: str = "s"):
        self.workdir, self.prefix, self.count = workdir, prefix, 0

    def system(self, F: list[Poly], nvars: int) -> str:
        name = f"{self.prefix}{self.count:03d}.json"
        self.count += 1
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(exact.system_to_json(F, nvars), fh)
        return name

    @staticmethod
    def report(argv: list[str]) -> str:
        return f"{argv[1][:-len('.json')]}-{argv[0]}.out.json"


def _cli_op(lib, files, kind, argv, expect) -> Op:
    """``polyred --out <report> <argv>``; paths are relative to the work directory.

    The report of a repeated op is checked by comparing bytes with the last
    one checked, since the same input must give the same report.
    """
    report = _FileNamer.report(argv)
    full_argv = ["--out", report] + argv
    checked: dict[bytes, str] = {}

    def call():
        return lib.cli.main(full_argv)

    def check(code):
        with open(os.path.join(files.workdir, report), "rb") as fh:
            body = fh.read()
        raw = body + f"exit {code}\n".encode()
        if raw not in checked:
            checked.clear()
            checked[raw] = expect(json.loads(body), code)
        return checked[raw], raw
    return Op(kind, call, check)


def _verdict_outcome(report, code, expect_member: bool) -> str | None:
    verdict = report.get("verdict")
    if verdict == "undetermined":
        return UNDETERMINED
    expected = ("member", 0) if expect_member else ("non_member", 1)
    return None if (verdict, code) == expected else WRONG


def _expect_jlin(member: bool, constant):
    def expect(report, code):
        bad = _verdict_outcome(report, code, member)
        if bad:
            return bad
        if member and exact.parse_gaussian(report["constant"]) != constant:
            return WRONG
        return CORRECT
    return expect


def _expect_non_member():
    def expect(report, code):
        return _verdict_outcome(report, code, False) or CORRECT
    return expect


def _expect_point(root):
    """Member whose witness, the inverse restricted to the slice y = 0, is F^-1(0)."""
    def expect(report, code):
        bad = _verdict_outcome(report, code, True)
        if bad:
            return bad
        witness = exact.system_from_json(report["witness"]["system"])
        return CORRECT if [p.constant() for p in witness] == root and \
            all(p.degree() <= 0 for p in witness) else WRONG
    return expect


def _expect_restricted(F: list[Poly], n1: int):
    """Member whose witness P satisfies F(P(y1)) = (y1, 0) exactly."""
    def expect(report, code):
        bad = _verdict_outcome(report, code, True)
        if bad:
            return bad
        P = exact.system_from_json(report["witness"]["system"])
        image = exact.compose_maps(F, P)
        target = exact.identity(n1) + [Poly(n1)] * (len(F) - n1)
        return CORRECT if image == target else WRONG
    return expect


def _expect_elimination(S: list[Poly], rinv: list[Poly], n1: int):
    """R o Rinv = y2 and S1(z1, Rinv) = H, re-checked here by exact composition."""
    def expect(report, code):
        if report.get("status") != "ok" or code != 0:
            return WRONG
        N = len(S)
        got_rinv = exact.system_from_json(report["Rinv"])
        H = exact.system_from_json(report["H"])
        params = exact.identity(N)[:n1]
        y = exact.identity(N)[n1:]
        ok = (got_rinv == rinv
              and exact.compose_maps(S[n1:], params + got_rinv) == y
              and exact.compose_maps(S[:n1], params + got_rinv) == H)
        return CORRECT if ok else WRONG
    return expect


WORKLOADS = {"series": build_series, "transport": build_transport, "verdicts": build_verdicts}
