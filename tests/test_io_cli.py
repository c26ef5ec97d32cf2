import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import polyred.series
from polyred import acceptance
from polyred.cli import main
from polyred.family import FamilyInstance, family_system
from polyred.gaussian import Q
from polyred.io import (
    SchemaError,
    dumps_canonical,
    polynomial_from_dict,
    polynomial_to_dict,
    read_system,
    system_from_dict,
    system_to_dict,
    write_system,
)
from polyred.poly import Polynomial, PolySystem

P = Polynomial


def z(i, n=2):
    return P.variable(i, n)


@pytest.fixture
def ident_file(tmp_path):
    path = tmp_path / "ident.json"
    write_system(str(path), PolySystem.identity(2))
    return str(path)


@pytest.fixture
def member_file(tmp_path):
    path = tmp_path / "member.json"
    write_system(str(path), PolySystem([z(0) - z(1) ** 3, z(1)], degree_bound=3))
    return str(path)


@pytest.fixture
def nonmember_file(tmp_path):
    path = tmp_path / "nonmember.json"
    write_system(str(path), PolySystem([z(0) - z(0) ** 3, z(1)], degree_bound=3))
    return str(path)


def test_polynomial_round_trip():
    p = z(0) ** 2 - z(1).scale(Q("1/2", "-2")) + 3
    obj = polynomial_to_dict(p)
    assert polynomial_from_dict(obj) == p
    # terms are emitted in descending graded-lex order
    exps = [tuple(t["exp"]) for t in obj["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)


def test_system_file_round_trip_byte_identical(tmp_path):
    F = PolySystem([z(0) + z(1) ** 2, z(1).scale(Q(0, 1))], degree_bound=4)
    path = tmp_path / "f.json"
    write_system(str(path), F, provenance={"note": "test"})
    raw1 = path.read_bytes()
    G, prov = read_system(str(path))
    assert G == F and prov == {"note": "test"}
    write_system(str(path), G, provenance=prov)
    assert path.read_bytes() == raw1


def test_schema_errors_name_the_field():
    good = system_to_dict(PolySystem.identity(2))
    bad = json.loads(dumps_canonical(good))
    bad["components"][1]["terms"][0]["exp"] = [1]
    with pytest.raises(SchemaError) as exc:
        system_from_dict(bad)
    assert "components[1]" in str(exc.value)
    with pytest.raises(SchemaError, match="version"):
        system_from_dict({"version": 99, "nvars": 1, "components": []})
    with pytest.raises(SchemaError, match="re"):
        polynomial_from_dict({"nvars": 1, "terms": [{"exp": [1], "re": "x", "im": "0"}]})
    with pytest.raises(SchemaError, match="duplicate"):
        polynomial_from_dict({"nvars": 1, "terms": [
            {"exp": [1], "re": "1", "im": "0"}, {"exp": [1], "re": "2", "im": "0"}]})
    with pytest.raises(SchemaError, match="degree bound"):
        system_from_dict({"version": 1, "nvars": 1, "degree_bound": 1, "components": [
            {"nvars": 1, "terms": [{"exp": [2], "re": "1", "im": "0"}]}]})


@pytest.mark.parametrize("field", ["version", "nvars", "degree_bound",
                                   "component nvars", "exp"])
def test_booleans_are_not_integers(field, tmp_path, capsys):
    obj = system_to_dict(PolySystem.identity(1))
    if field == "component nvars":
        obj["components"][0]["nvars"] = True
    elif field == "exp":
        obj["components"][0]["terms"][0]["exp"] = [True]
    else:
        obj[field] = True
    with pytest.raises(SchemaError, match=field.split()[-1]):
        system_from_dict(obj)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    assert main(["check-jlin", str(path)]) == 2
    assert capsys.readouterr().out == ""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_check_jlin_member(ident_file, capsys):
    code, out = run_cli(capsys, "check-jlin", ident_file)
    rep = json.loads(out)
    assert code == 0
    assert rep["verdict"] == "member" and rep["constant"] == "1"


def test_cli_check_jlin_nonmember(nonmember_file, capsys):
    code, out = run_cli(capsys, "check-jlin", nonmember_file)
    rep = json.loads(out)
    assert code == 1 and rep["verdict"] == "non_member"
    assert rep["offending_term"]


def test_cli_reduce_then_partial_agrees_with_jlin(member_file, nonmember_file,
                                                  tmp_path, capsys):
    for path, expected_code in ((member_file, 0), (nonmember_file, 1)):
        out_path = str(tmp_path / "red.json")
        code, _ = run_cli(capsys, "reduce", path, "--variant", "algebraic",
                          "--out-system", out_path)
        assert code == 0
        code_jlin, out_jlin = run_cli(capsys, "check-jlin", path)
        code_part, out_part = run_cli(capsys, "check-partial", out_path,
                                      "--n1", "2", "--lin")
        assert code_jlin == code_part == expected_code
        assert (json.loads(out_jlin)["verdict"] ==
                json.loads(out_part)["verdict"])


def test_cli_check_partial_deep_exponent(tmp_path, capsys):
    # a power far beyond the interpreter's recursion limit must not crash composition
    path = tmp_path / "deep.json"
    write_system(str(path), PolySystem([z(0) - z(1) ** 1200, z(1)]))
    code, out = run_cli(capsys, "check-partial", str(path), "--n1", "1")
    assert code == 0 and json.loads(out)["verdict"] == "member"


def test_cli_reduce_report_carries_provenance(member_file, capsys):
    code, out = run_cli(capsys, "reduce", member_file, "--variant", "qft")
    rep = json.loads(out)
    assert code == 0
    prov = rep["system"]["provenance"]
    assert prov["source_dim"] == 2 and prov["variant"] == "qft"
    assert [1, 1, 3] in prov["index_map"]


def test_cli_invert_with_oracle(member_file, capsys):
    code, out = run_cli(capsys, "invert", member_file, "--order", "4",
                        "--oracle", "trees")
    rep = json.loads(out)
    assert code == 0
    assert rep["defect_zero"] and rep["oracle"]["equal"]
    assert rep["grades_pretty"]["0"] == ["z1", "z2"]


def test_cli_invert_rejects_non_normalized(tmp_path, capsys):
    path = tmp_path / "nn.json"
    write_system(str(path), PolySystem([z(0) + 1, z(1)]))
    assert main(["invert", str(path), "--order", "2"]) == 2


def test_cli_partition(member_file, capsys):
    code, out = run_cli(capsys, "partition", member_file, "--order", "3")
    rep = json.loads(out)
    assert code == 0 and rep["z_det_identity"] is True


def test_cli_partition_builds_the_inverse_and_curvature_matrix_once(member_file, capsys,
                                                                     monkeypatch):
    calls = {"formal_inverse_fixed_point": 0, "_curvature_matrix": 0}
    for name in calls:
        real = getattr(polyred.series, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(polyred.series, name, counting)
    code, _ = run_cli(capsys, "partition", member_file, "--order", "4")
    assert code == 0 and calls == {"formal_inverse_fixed_point": 1, "_curvature_matrix": 1}


def test_cli_order_env_default(member_file, capsys, monkeypatch):
    monkeypatch.setenv("POLYRED_ORDER", "2")
    code, out = run_cli(capsys, "invert", member_file)
    assert code == 0
    assert json.loads(out)["order"] == 2


@pytest.mark.parametrize("command", ["invert", "partition"])
@pytest.mark.parametrize("raw", ["-3", "abc", ""])
def test_cli_order_env_is_validated_like_the_flag(command, raw, member_file, capsys,
                                                  monkeypatch):
    monkeypatch.setenv("POLYRED_ORDER", raw)
    assert main([command, member_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order" in captured.err


@pytest.mark.parametrize("command", ["invert", "partition"])
@pytest.mark.parametrize("raw", ["4", "abc"])
def test_cli_order_flag_overrides_env(command, raw, member_file, capsys, monkeypatch):
    monkeypatch.setenv("POLYRED_ORDER", raw)
    code, out = run_cli(capsys, command, member_file, "--order", "2")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_cli_reads_order_env_on_every_call(member_file, capsys, monkeypatch):
    for raw, order in [("2", 2), ("3", 3), ("abc", None), (None, 5)]:
        if raw is None:
            monkeypatch.delenv("POLYRED_ORDER")
        else:
            monkeypatch.setenv("POLYRED_ORDER", raw)
        code = main(["invert", member_file])
        captured = capsys.readouterr()
        if order is None:
            assert code == 2 and captured.out == "" and "--order" in captured.err
        else:
            assert code == 0 and json.loads(captured.out)["order"] == order


def test_cli_builds_its_parser_once(ident_file, capsys, monkeypatch):
    first = run_cli(capsys, "check-jlin", ident_file)
    assert first[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a second parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_cli(capsys, "check-jlin", ident_file) == first


def test_cli_importing_builds_no_parser():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import argparse\n"
            "def refuse(*args, **kwargs):\n"
            "    raise SystemExit('parser built at import')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import polyred.cli\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_eliminate_reports_witness_on_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_system(str(path), PolySystem([z(0), z(1) - z(1) ** 2], degree_bound=2))
    code, out = run_cli(capsys, "eliminate", str(path), "--n1", "1")
    rep = json.loads(out)
    assert code == 1
    assert rep["status"] == "not_invertible"
    assert rep["witness"]["kind"] == "polynomial"


def test_cli_eliminate_ok(member_file, capsys):
    code, out = run_cli(capsys, "eliminate", member_file, "--n1", "1")
    rep = json.loads(out)
    assert code == 0
    assert {"R", "Rinv", "H"} <= set(rep)


def test_cli_example_s4(capsys, tmp_path):
    emit = str(tmp_path / "family.json")
    code, out = run_cli(capsys, "example-s4", "--d", "2", "--count", "20",
                        "--seed", "3", "--emit", emit)
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    F, prov = read_system(emit)
    fam = prov["family"]
    inst = FamilyInstance.of(fam["d"], fam["a1"], fam["a2"])
    assert family_system(inst) == F


def test_cli_determinism(member_file, capsys):
    _, out1 = run_cli(capsys, "example-s4", "--d", "2", "--count", "15", "--seed", "9")
    _, out2 = run_cli(capsys, "example-s4", "--d", "2", "--count", "15", "--seed", "9")
    assert out1 == out2
    _, inv1 = run_cli(capsys, "invert", member_file, "--order", "3")
    _, inv2 = run_cli(capsys, "invert", member_file, "--order", "3")
    assert inv1 == inv2


def test_cli_usage_and_io_errors(capsys):
    assert main(["check-jlin", "/nonexistent/x.json"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("text", ["1e10000000", "0.5", " 3", "1_000", "\u0663"])
def test_cli_rejects_rationals_outside_the_documented_form(text, tmp_path, capsys):
    # Fraction() would parse these; an exponent literal alone can take seconds
    obj = system_to_dict(PolySystem.identity(1))
    obj["components"][0]["terms"][0]["re"] = text
    path = tmp_path / "coefficient.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["check-jlin", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text, reason", [
    ("1/0", "Fraction(1, 0)"),
    ("7" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
])
def test_cli_rejects_unparseable_rationals(text, reason, tmp_path, capsys):
    # a zero denominator, and a numerator longer than int() converts
    obj = system_to_dict(PolySystem.identity(1))
    obj["components"][0]["terms"][0]["re"] = text
    path = tmp_path / "coefficient.json"
    path.write_text(json.dumps(obj))
    assert main(["check-jlin", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"components[0].terms[0].re: cannot parse rational {text!r}: {reason}" in captured.err


def test_unreduced_rationals_are_written_back_reduced(tmp_path):
    obj = system_to_dict(PolySystem.identity(1))
    obj["components"][0]["terms"][0].update({"re": "2/4", "im": "-6/8"})
    obj["components"][0]["terms"].append({"exp": [0], "re": "-6/8", "im": "+10/5"})
    path = tmp_path / "unreduced.json"
    path.write_text(json.dumps(obj))
    F, _ = read_system(str(path))
    assert F.components[0] == P(1, {(1,): Q("1/2", "-3/4"), (0,): Q("-3/4", 2)})
    write_system(str(path), F)
    terms = json.loads(path.read_text())["components"][0]["terms"]
    assert [(t["re"], t["im"]) for t in terms] == [("1/2", "-3/4"), ("-3/4", "2")]


def test_cli_rejects_deeply_nested_json(tmp_path, capsys):
    # nesting far beyond the interpreter's recursion limit is a schema error, not a crash
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        read_system(str(path))
    assert main(["check-jlin", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("command", ["invert", "partition"])
def test_cli_graded_commands_reject_zero_variables(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": 1, "nvars": 0, "degree_bound": 0,
                                "components": []}))
    assert main([command, str(path), "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a coupling tensor needs at least one variable\n"


def test_cli_jacobian_commands_on_zero_variables(tmp_path, capsys):
    # the empty Jacobian has determinant 1, so every membership test answers member
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": 1, "nvars": 0, "degree_bound": 0,
                                "components": []}))
    empty = {"version": 1, "nvars": 0, "degree_bound": 0, "components": []}
    code, out = run_cli(capsys, "check-jlin", str(path))
    assert code == 0
    assert json.loads(out) == {
        "command": "check-jlin", "input": str(path), "verdict": "member",
        "constant": "1", "offending_term": None,
        "detail": "Jacobian determinant is the constant 1"}
    code, out = run_cli(capsys, "check-partial", str(path), "--n1", "0", "--lin")
    assert code == 0
    assert json.loads(out) == {
        "command": "check-partial", "input": str(path), "n1": 0, "lin": True,
        "verdict": "member", "witness": {"kind": "constant", "value": "1"},
        "detail": "Jacobian determinant at R^-1(0) is 1"}
    code, out = run_cli(capsys, "check-partial", str(path), "--n1", "0")
    assert code == 0
    assert json.loads(out) == {
        "command": "check-partial", "input": str(path), "n1": 0, "lin": False,
        "verdict": "member",
        "witness": {"kind": "system", "pretty": "()", "system": empty},
        "detail": "empty leading block; the block inverse certifies"}
    code, out = run_cli(capsys, "eliminate", str(path), "--n1", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "ok"
    assert rep["R"] == rep["Rinv"] == rep["H"] == empty
    # one component in no variables is not square, and stays an input error
    path.write_text(json.dumps({**empty, "components": [
        {"nvars": 0, "terms": [{"exp": [], "re": "1", "im": "0"}]}]}))
    assert main(["check-jlin", str(path)]) == 2
    assert capsys.readouterr().err == "error: Jacobian needs a square system\n"


def test_cli_rejects_vacuous_counts_and_negative_caps(member_file, capsys):
    assert main(["example-s4", "--d", "2", "--count", "0"]) == 2
    assert main(["example-s4", "--d", "2", "--count", "-1"]) == 2
    assert main(["check-partial", member_file, "--n1", "0", "--cap", "-1"]) == 2
    assert main(["eliminate", member_file, "--n1", "0", "--cap", "-3"]) == 2
    assert main(["partition", member_file, "--order", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["check-partial", member_file, "--n1", "0", "--cap", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "undetermined"


@pytest.mark.parametrize("d", ["-1", "-7", "0", "1"])
def test_cli_example_s4_rejects_degree_below_two(d, capsys):
    assert main(["example-s4", "--d", d, "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family degree starts at 2\n"


def _stub_criteria():
    return [lambda seed: acceptance.CheckResult("stub pass", True, f"seed {seed}"),
            lambda seed: acceptance.CheckResult("stub fail", False, "broken")]


def test_cli_verify_all_without_timing_has_no_elapsed_ms(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", _stub_criteria())
    code, out = run_cli(capsys, "verify-all", "--seed", "5")
    assert code == 1
    assert out == dumps_canonical({
        "command": "verify-all",
        "seed": 5,
        "criteria": [{"name": "stub pass", "passed": True, "detail": "seed 5"},
                     {"name": "stub fail", "passed": False, "detail": "broken"}],
        "passed": False,
    })


def test_cli_verify_all_timing_times_each_criterion(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", _stub_criteria())
    _, plain = run_cli(capsys, "verify-all", "--seed", "5")
    code, out = run_cli(capsys, "--timing", "verify-all", "--seed", "5")
    assert code == 1
    rep = json.loads(out)
    assert [sorted(c) for c in rep["criteria"]] == \
        [["detail", "elapsed_ms", "name", "passed"]] * 2
    elapsed = [c.pop("elapsed_ms") for c in rep["criteria"]]
    assert all(isinstance(ms, int) and ms >= 0 for ms in elapsed)
    assert isinstance(rep.pop("elapsed_ms"), int)
    assert rep == json.loads(plain)


def test_cli_pretty_format(ident_file, capsys):
    code, out = run_cli(capsys, "--format", "pretty", "check-jlin", ident_file)
    assert code == 0
    assert "verdict: member" in out


def test_cli_out_file(ident_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "--out", str(target), "check-jlin", ident_file)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "member"


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_cli_unwritable_out_is_an_input_error(where, ident_file, tmp_path, capsys):
    # a missing parent directory or a directory as target: exit 2, no traceback
    assert main(["--out", str(tmp_path / where), "check-jlin", ident_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: MemoryError: input too large\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
])
def test_cli_maps_exhausted_resources_to_exit_2(exc, message, ident_file, monkeypatch, capsys):
    def exhausted(args):
        raise exc

    # the parser exists before the patch, so the handler must be looked up per call
    assert main(["check-jlin", ident_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr("polyred.cli._cmd_check_jlin", exhausted)
    assert main(["check-jlin", ident_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
