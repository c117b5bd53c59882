import json

import pytest

from conftest import DISPENSER, VENDING
from cigkit import (
    DuplicateTestId,
    build_cig,
    cig_to_dot,
    cig_to_json,
    compose_many,
    composition_result_to_json,
    extract_interfaces,
    generate_new_tests,
    library_to_json,
    parse_statechart,
    serialize_statechart,
)
import cigkit.cig
import cigkit.cli as cli
from cigkit.cli import main, run

FIXTURE_ARGS = [str(VENDING), str(DISPENSER)]


def _fixture_charts_for_cli():
    from cigkit import ChartSet

    return ChartSet(
        (
            parse_statechart(VENDING.read_text(encoding="utf-8")),
            parse_statechart(DISPENSER.read_text(encoding="utf-8")),
        )
    )


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


DISJOINT_A = "component A\nstate X\ninitial X\ntransition X -> X on go\nend\n"
DISJOINT_B = "component B\nstate Y\ninitial Y\ntransition Y -> Y on run\nend\n"


def test_parse_prints_canonical_form(capsys, vending_chart):
    assert main(["parse", str(VENDING)]) == 0
    out = capsys.readouterr()
    assert out.out == serialize_statechart(vending_chart)
    assert out.err == ""


def test_parse_reports_all_files(capsys, tmp_path, dispenser_chart):
    bad = _write(tmp_path, "bad.sc", "component A\nstate X\ninitial X\nbogus Y\nend\n")
    assert main(["parse", bad, str(DISPENSER)]) == 2
    out = capsys.readouterr()
    assert "bad.sc: line 4" in out.err
    assert out.out == serialize_statechart(dispenser_chart)  # the good file still prints


def test_parse_missing_file(capsys):
    assert main(["parse", "/no/such/file.sc"]) == 2
    assert "error" in capsys.readouterr().err


def test_compose_golden_output(capsys):
    assert main(["compose", *FIXTURE_ARGS]) == 0
    out = capsys.readouterr()
    charts = _fixture_charts_for_cli()
    expected = composition_result_to_json(
        compose_many([extract_interfaces(c) for c in charts])
    )
    assert out.out == expected
    data = json.loads(out.out)
    assert data["composed"]["provided"] == ["cancel", "insert", "vend"]
    assert data["composed"]["required"] == ["returnCoins"]
    assert data["satisfied"] == ["dispense", "nok", "ok", "setCredit"]


def test_compose_out_file(capsys, tmp_path):
    target = tmp_path / "comp.json"
    assert main(["compose", *FIXTURE_ARGS, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["left"] == "VendingMachine"


def test_compose_needs_two_files(capsys):
    assert main(["compose", str(VENDING)]) == 2
    assert "at least two" in capsys.readouterr().err


def test_compose_disjoint_charts_exit_1(capsys, tmp_path):
    a = _write(tmp_path, "a.sc", DISJOINT_A)
    b = _write(tmp_path, "b.sc", DISJOINT_B)
    assert main(["compose", a, b]) == 1
    assert "not composable: S is empty" in capsys.readouterr().err


def test_compose_rejects_ill_formed_component(capsys, tmp_path):
    text = (
        "component A\nstate X\nstate Y\ninitial X\n"
        "transition X -> Y on ping\n"
        "transition Y -> X on pong do ping\n"
        "end\n"
    )
    a = _write(tmp_path, "a.sc", text)
    b = _write(tmp_path, "b.sc", DISJOINT_B)
    assert main(["compose", a, b]) == 2
    assert "both accepts and emits" in capsys.readouterr().err


def test_compose_rejects_duplicate_component_names(capsys):
    assert main(["compose", str(VENDING), str(VENDING)]) == 2
    assert "duplicate component" in capsys.readouterr().err


def test_cig_json_and_dot_outputs(capsys):
    charts = _fixture_charts_for_cli()
    assert main(["cig", *FIXTURE_ARGS]) == 0
    assert capsys.readouterr().out == cig_to_json(build_cig(charts))
    assert main(["cig", *FIXTURE_ARGS, "--format", "dot"]) == 0
    assert capsys.readouterr().out == cig_to_dot(build_cig(charts))


def test_cig_report_table_on_stderr(capsys):
    assert main(["cig", *FIXTURE_ARGS, "--format", "dot", "--report"]) == 0
    out = capsys.readouterr()
    assert "ReadyToDispense" in out.err and "Removed" in out.err
    assert "classification" in out.err
    assert "ReadyToDispense" not in out.out  # removed from the graph itself


def test_cig_report_analyzes_the_charts_once(capsys, monkeypatch):
    calls = []
    analyze = cigkit.cig._analyze
    monkeypatch.setattr(cigkit.cig, "_analyze", lambda charts: calls.append(charts) or analyze(charts))
    assert main(["cig", *FIXTURE_ARGS, "--format", "dot", "--report"]) == 0
    assert len(calls) == 1
    assert "ReadyToDispense  Removed" in capsys.readouterr().err


def test_cig_disjoint_charts_exit_1(capsys, tmp_path):
    a = _write(tmp_path, "a.sc", DISJOINT_A)
    b = _write(tmp_path, "b.sc", DISJOINT_B)
    assert main(["cig", a, b]) == 1
    assert "nothing interacts" in capsys.readouterr().err


def test_cig_needs_two_files(capsys):
    assert main(["cig", str(VENDING)]) == 2


def test_tests_gen_matches_library_output(capsys, tmp_path):
    cig_path = tmp_path / "cig.json"
    assert main(["cig", *FIXTURE_ARGS, "--out", str(cig_path)]) == 0
    capsys.readouterr()
    report = run(["tests", "gen", "--cig", str(cig_path), *FIXTURE_ARGS])
    out = capsys.readouterr()
    assert report.exit_code == 0
    charts = _fixture_charts_for_cli()
    assert out.out == library_to_json(generate_new_tests(build_cig(charts), charts))
    assert len(report.warnings) == 2
    assert out.err.count("cig: warning:") == 2


def test_tests_gen_rejects_malformed_cig(capsys, tmp_path):
    bad = _write(tmp_path, "cig.json", '{"components": []}')
    assert main(["tests", "gen", "--cig", bad, *FIXTURE_ARGS]) == 2
    assert "missing key" in capsys.readouterr().err


def test_tests_gen_rejects_mismatched_charts(capsys, tmp_path):
    cig_path = tmp_path / "cig.json"
    assert main(["cig", *FIXTURE_ARGS, "--out", str(cig_path)]) == 0
    a = _write(tmp_path, "a.sc", DISJOINT_A)
    b = _write(tmp_path, "b.sc", DISJOINT_B)
    assert main(["tests", "gen", "--cig", str(cig_path), a, b]) == 2
    assert "no statechart" in capsys.readouterr().err


def test_tests_gen_rejects_duplicate_edge(capsys, tmp_path):
    assert main(["cig", *FIXTURE_ARGS]) == 0
    data = json.loads(capsys.readouterr().out)
    data["edges"].append(data["edges"][0])
    cig_path = _write(tmp_path, "cig.json", json.dumps(data))
    assert main(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cig: error: {cig_path}: invalid CIG document: duplicate edge ")
    assert err.count("\n") == 1


def test_tests_gen_rejects_a_removed_ref_that_is_no_name(capsys, tmp_path):
    assert main(["cig", *FIXTURE_ARGS]) == 0
    data = json.loads(capsys.readouterr().out)
    data["removed"] = [{"component": 5, "state": None}]
    cig_path = _write(tmp_path, "cig.json", json.dumps(data))
    assert main(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cig: error: {cig_path}: invalid CIG document: invalid component name: 5\n"


def test_tests_gen_unreachable_provider_exit_1(capsys, tmp_path):
    a = _write(
        tmp_path,
        "a.sc",
        "component A\nstate W\nstate X\ninitial W\ntransition X -> X on fire do alarm\nend\n",
    )
    b = _write(tmp_path, "b.sc", "component B\nstate Y\ninitial Y\ntransition Y -> Y on alarm\nend\n")
    cig_path = tmp_path / "cig.json"
    assert main(["cig", a, b, "--out", str(cig_path)]) == 0
    assert main(["tests", "gen", "--cig", str(cig_path), a, b]) == 1
    assert "no event path" in capsys.readouterr().err


def _tests_compose_files(tmp_path, capsys):
    cig_path = str(tmp_path / "cig.json")
    comp_path = str(tmp_path / "comp.json")
    gen_path = str(tmp_path / "gen.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    assert main(["compose", *FIXTURE_ARGS, "--out", comp_path]) == 0
    assert main(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS, "--out", gen_path]) == 0
    capsys.readouterr()
    t1 = _write(
        tmp_path,
        "t1.json",
        json.dumps(
            {
                "cases": [
                    {
                        "id": "vm_credit",
                        "owner": "VendingMachine",
                        "services": ["setCredit"],
                        "steps": [{"event": "insert", "expected_actions": []}],
                    },
                    {
                        "id": "vm_coins",
                        "owner": "VendingMachine",
                        "services": ["insert"],
                        "steps": [{"event": "insert", "expected_actions": []}],
                    },
                ]
            }
        ),
    )
    t2 = _write(tmp_path, "t2.json", '{"cases": []}')
    return t1, t2, comp_path, gen_path


def test_tests_compose_applies_the_law(capsys, tmp_path):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", comp_path, "--tnew", gen_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in data["removed"]["cases"]] == ["vm_credit"]
    assert [c["id"] for c in data["retained"]["cases"]] == ["vm_coins"]
    assert len(data["final"]["cases"]) == 2 + 0 - 1 + 5
    assert [c["id"] for c in data["final"]["cases"][:1]] == ["vm_coins"]


def test_tests_compose_duplicate_ids_exit_1(capsys, tmp_path):
    t1, _, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    assert (
        main(["tests", "compose", "--t1", t1, "--t2", t1_copy(tmp_path, t1), "--composition", comp_path, "--tnew", gen_path])
        == 1
    )
    assert "share test id" in capsys.readouterr().err


def t1_copy(tmp_path, t1):
    copy = tmp_path / "t1_copy.json"
    copy.write_text((tmp_path / "t1.json").read_text(), encoding="utf-8")
    return str(copy)


def test_tests_compose_missing_file_exit_2(capsys, tmp_path):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    assert (
        main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", "/no/file", "--tnew", gen_path])
        == 2
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"steps": []}, "at least one step"),
        ({"left": "Nobody", "satisfied": ["zzz"]}, "must match its last step"),
        ({"satisfied": ["dispense"]}, "must match its last step"),
    ],
)
def test_tests_compose_rejects_inconsistent_composition(capsys, tmp_path, edit, message):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "comp.json").read_text(encoding="utf-8"))
    bad = _write(tmp_path, "bad.json", json.dumps({**data, **edit}))
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", bad, "--tnew", gen_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cig: error: {bad}: ") and message in err
    assert err.count("\n") == 1


def test_tests_compose_rejects_a_step_operand_that_is_no_name(capsys, tmp_path):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "comp.json").read_text(encoding="utf-8"))
    data["left"] = data["steps"][0]["left"] = 5
    bad = _write(tmp_path, "bad.json", json.dumps(data))
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", bad, "--tnew", gen_path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cig: error: {bad}: invalid composition step: invalid component name: 5\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["cig", "--format", "svg", str(VENDING), str(DISPENSER)])
    assert err.value.code == 2


def test_run_reports_inputs():
    report = run(["parse", str(VENDING)])
    assert report.command == "parse"
    assert report.inputs == [str(VENDING)]
    assert report.exit_code == 0


def test_failed_run_keeps_its_report(capsys, tmp_path):
    report = run(["tests", "gen", "--cig", "/nonexistent.json", *FIXTURE_ARGS])
    assert (report.command, report.exit_code) == ("tests gen", 2)
    assert report.inputs == ["/nonexistent.json", *FIXTURE_ARGS]
    # a failure after generation keeps the warnings it raised
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    report = run(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS, "--out", str(tmp_path)])
    assert report.exit_code == 2
    assert report.inputs == [cig_path, *FIXTURE_ARGS]
    assert len(report.warnings) == 2


def test_safety_net_keeps_the_report(capsys, tmp_path, monkeypatch):
    # an error the handler does not contextualize, raised after a warning
    def generate(cig, charts, warn):
        warn("first")
        raise DuplicateTestId("clash")

    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "generate_new_tests", generate)
    report = run(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS])
    assert (report.command, report.exit_code) == ("tests gen", 1)
    assert report.inputs == [cig_path, *FIXTURE_ARGS]
    assert report.warnings == ["first"]
    assert capsys.readouterr().err.endswith("cig: error: clash\n")


_PROVIDER_STATES = {
    # emits through a trigger but cannot be reached from W
    "X": "transition X -> X on fire do alarm\n",
    # reachable, but emits only through an automatic transition
    "Y": "transition W -> Y on go\ntransition Y -> W do alarm\ntransition Y -> Y on keep\n",
    # neither reachable nor triggerable
    "U": "transition U -> W do alarm\ntransition U -> U on keep\n",
}


@pytest.mark.parametrize(
    "order, message",
    [
        ("XYU", "no event path reaches state 'X' from 'W' in component 'A'"),
        ("YXU", "state 'Y' of 'A' has no triggered transition emitting 'alarm'"),
        ("UXY", "state 'U' of 'A' has no triggered transition emitting 'alarm'"),
    ],
)
def test_tests_gen_reports_the_first_failing_edge(capsys, tmp_path, order, message):
    # edges are checked in graph order, and on each edge the emitting
    # transition is checked before the path that leads to its state
    a = _write(
        tmp_path,
        "a.sc",
        "component A\nstate W\n"
        + "".join(f"state {s}\n" for s in order)
        + "initial W\n"
        + "".join(_PROVIDER_STATES[s] for s in order)
        + "end\n",
    )
    b = _write(tmp_path, "b.sc", "component B\nstate Z\ninitial Z\ntransition Z -> Z on alarm\nend\n")
    cig_path = tmp_path / "cig.json"
    assert main(["cig", a, b, "--out", str(cig_path)]) == 0
    capsys.readouterr()
    assert main(["tests", "gen", "--cig", str(cig_path), a, b]) == 1
    assert capsys.readouterr().err == f"cig: error: {message}\n"


def test_undecodable_file_exits_2_naming_it(capsys, tmp_path):
    chart = tmp_path / "chart.sc"
    chart.write_bytes(b"component A\nstate \xff\n")
    assert main(["parse", str(chart)]) == 2
    assert capsys.readouterr().err == (
        f"cig: error: {chart}: 'utf-8' codec can't decode byte 0xff in position 18: "
        "invalid start byte\n"
    )
    cig_path = tmp_path / "cig.json"
    cig_path.write_bytes(b'{"components": ["\xc3"]}')
    assert main(["tests", "gen", "--cig", str(cig_path), *FIXTURE_ARGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cig: error: {cig_path}: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = _write(tmp_path, "deep.json", "[" * 200000)
    assert main(["tests", "gen", "--cig", deep, *FIXTURE_ARGS]) == 2
    assert capsys.readouterr().err.startswith(f"cig: error: {deep}: invalid JSON: maximum recursion depth")
    t1, t2, comp_path, _ = _tests_compose_files(tmp_path, capsys)
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", comp_path, "--tnew", deep]) == 2
    assert capsys.readouterr().err.startswith(f"cig: error: {deep}: invalid JSON: maximum recursion depth")


def test_oversized_integer_in_a_library_exits_2(capsys, tmp_path):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    big = _write(tmp_path, "big.json", '{"cases": [' + "7" * 5000 + "]}")
    assert main(["tests", "compose", "--t1", big, "--t2", t2, "--composition", comp_path, "--tnew", gen_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cig: error: {big}: invalid JSON: Exceeds the limit") and err.count("\n") == 1


def test_tests_compose_rejects_a_composite_that_breaks_disjointness(capsys, tmp_path):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "comp.json").read_text(encoding="utf-8"))
    data["composed"]["required"].append("vend")
    bad = _write(tmp_path, "bad.json", json.dumps(data))
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", bad, "--tnew", gen_path]) == 2
    assert capsys.readouterr().err == (
        f"cig: error: {bad}: component 'VendingMachine_x_Dispenser' both provides and requires: vend\n"
    )


def test_a_test_id_listed_twice_in_one_library_exits_2(capsys, tmp_path):
    # the same clash between two libraries is a domain error (exit 1)
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "t1.json").read_text(encoding="utf-8"))
    data["cases"].append(data["cases"][0])
    twice = _write(tmp_path, "twice.json", json.dumps(data))
    assert main(["tests", "compose", "--t1", twice, "--t2", t2, "--composition", comp_path, "--tnew", gen_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cig: error: {twice}: ") and "vm_credit" in err


def test_tests_gen_rejects_a_stale_edge(capsys, tmp_path):
    # the CIG was built before the dispenser renamed its setCredit trigger
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    text = DISPENSER.read_text(encoding="utf-8").replace("on setCredit", "on putCredit")
    stale = _write(tmp_path, "dispenser.sc", text)
    report = run(["tests", "gen", "--cig", cig_path, str(VENDING), stale])
    assert report.exit_code == 2 and report.warnings == []
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cig: error: state 'Empty' of 'Dispenser' has no transition accepting 'setCredit'\n"


def test_tests_gen_rejects_an_edge_nothing_emits_any_more(capsys, tmp_path):
    # the CIG was built before the dispenser stopped answering dispense with ok
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    text = DISPENSER.read_text(encoding="utf-8").replace("on dispense do ok", "on dispense")
    stale = _write(tmp_path, "dispenser.sc", text)
    capsys.readouterr()
    assert main(["tests", "gen", "--cig", cig_path, str(VENDING), stale]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(
        "cig: error: CIG does not match its statecharts: state 'Enabled' of 'Dispenser' "
        "has no triggered transition emitting 'ok'\n"
    )


@pytest.mark.parametrize("ref", [{"component": 5, "state": "Idle"}, {"component": "A", "state": None}])
def test_tests_compose_rejects_an_expected_state_that_is_no_name(capsys, tmp_path, ref):
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "t1.json").read_text(encoding="utf-8"))
    data["cases"][0]["steps"][0]["expected_state"] = ref
    bad = _write(tmp_path, "bad.json", json.dumps(data))
    assert main(["tests", "compose", "--t1", bad, "--t2", t2, "--composition", comp_path, "--tnew", gen_path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"cig: error: {bad}: invalid test step: invalid ") and out.err.count("\n") == 1
