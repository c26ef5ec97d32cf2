"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import exact  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def test_self_time_of_a_synthetic_nested_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter_ns", clock)
    t = tracer.Tracer()

    def leaf():
        clock.work(7)

    def inner():
        clock.work(4)
        leaf_w()
        clock.work(1)

    def outer():
        clock.work(10)
        inner_w()
        clock.work(3)
        inner_w()
        clock.work(2)

    leaf_w, inner_w = t.span("leaf", leaf), t.span("inner", inner)
    outer_w = t.span("outer", outer)
    t.active = True
    outer_w()
    outer_w()
    times = t.self_times()
    assert times["outer"] == (2, 2 * 15 / 1e9)
    assert times["inner"] == (4, 4 * 5 / 1e9)
    assert times["leaf"] == (4, 4 * 7 / 1e9)


def test_inactive_tracer_records_nothing():
    t = tracer.Tracer()
    wrapped = t.span("f", lambda: 1)
    counted = t.count("g", lambda: 2)
    assert (wrapped(), counted()) == (1, 2)
    assert len(t.name_id) == 0 and not t.counts


def test_wrapping_returns_the_very_same_object():
    sentinel = object()
    t = tracer.Tracer()
    t.active = True
    assert t.span("f", lambda x: x)(sentinel) is sentinel
    assert t.count("g", lambda x: x)(sentinel) is sentinel


@pytest.fixture
def lib():
    return run.import_polyred()


def test_install_wraps_every_binding_and_outputs_stay_identical(lib):
    w = lib.couplings.CouplingTensor(2, 3, {(2, 0, (1, 1)): lib.gaussian.Gaussian(1, 1),
                                            (3, 1, (0, 0, 0)): lib.gaussian.Gaussian(-2)})
    before = lib.series.formal_inverse_fixed_point(w, 5)
    original = lib.series.formal_inverse_fixed_point
    t = tracer.Tracer()
    t.install()
    try:
        for modname in ("series", "jacobian", "reduction", "acceptance", "cli"):
            bound = getattr(lib, modname).formal_inverse_fixed_point
            assert bound is not original and bound.__wrapped__ is original
        for target in tracer.TARGETS:
            fn = tracer._lookup(target[0], target[1])
            assert fn is not None and not tracer._references(fn.__wrapped__)
        t.active = True
        after = lib.series.formal_inverse_fixed_point(w, 5)
        t.active = False
    finally:
        t.uninstall()
    assert lib.series.formal_inverse_fixed_point is original
    assert after == before
    assert t.self_times()["series.formal_inverse_fixed_point"][0] == 1
    assert t.counts["gaussian.new"] > 0


def test_install_refuses_a_binding_it_cannot_patch(lib):
    lib.io._DISPATCH = {"read": lib.io.read_system}
    t = tracer.Tracer()
    try:
        with pytest.raises(tracer.UnwrappedBinding, match="_DISPATCH"):
            t.install()
    finally:
        t.uninstall()
        del lib.io._DISPATCH


def test_deadline_and_outcome_classes(lib):
    runner = run.Runner("series", 0)
    runner.deadline = run.Deadline(0.05)

    def spin():
        while True:
            time.sleep(0.001)

    def boom():
        raise ValueError("boom")

    never = workloads.Op("t", spin, lambda out: (workloads.CORRECT, b""))
    raises = workloads.Op("t", boom, lambda out: (workloads.CORRECT, b""))
    wrong = workloads.Op("t", lambda: 1, lambda out: (workloads.WRONG, b"1"))
    assert runner.run_op(never)[0] == run.OVERRAN
    assert runner.run_op(raises)[0] == run.RAISED
    assert runner.run_op(wrong)[0] == workloads.WRONG


@pytest.mark.parametrize("re_part, im_part", [(3, 0), (0, 1), (0, -1), ("-1/2", 2),
                                               ("1/2", -1), (0, "-3/2"), (-4, "5/7")])
def test_parse_gaussian_reads_the_printed_form(lib, re_part, im_part):
    g = lib.gaussian.Gaussian(re_part, im_part)
    assert exact.parse_gaussian(str(g)) == (g.re, g.im)


def test_tame_maps_send_their_known_root_to_zero():
    for n, d in ((2, 3), (3, 2), (4, 2)):
        F, root = workloads._tame(workloads.Draw(5, f"tame/{n}/{d}"), n, d, cplx=True)
        point = [exact.Poly.const(c, 0) for c in root]
        assert all(p.compose(point).constant() == exact.ZERO for p in F)


def test_traced_counts_repeat_for_a_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SERIES_STRATA", [(1, 3, 2, 2), (2, 2, 3, 2)])
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    counts = []
    for _ in range(2):
        runner = run.Runner("series", 3)
        try:
            summary, attempted, failed, metrics = run.run_traced(runner)
        finally:
            runner.cleanup()
        assert (attempted, failed) == (4, 0)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if not k.endswith(".self_s") and k != "trace.wall_ratio"})
        counts[-1]["digest"] = summary["digest"]
    assert counts[0] == counts[1]
    # two direct calls per op, and one inside z_det_identity_check
    assert counts[0]["series.formal_inverse_fixed_point.calls"] == 12


def test_reference_pace_scales_each_op_by_the_samples_nearest_it():
    ref = run.PACE_REF_S
    # op 0 sits between samples 0 and 1, op 1 between 1 and 2, and so on
    pace = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    scaled = run.at_reference_pace([1.0, 1.0, 2.0, 2.0, 2.0], pace)
    assert scaled == pytest.approx([1.0, 1 / 1.5, 1.0, 1.0, 1.0])
