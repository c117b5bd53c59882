import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DISPENSER, VENDING
from cigkit import (
    ChartSet,
    CigError,
    DuplicateTestId,
    TestLibrary,
    build_cig,
    cig_from_json,
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
import cigkit.documents
import cigkit.testlib
from cigkit.cli import main, run
from oracles import oracle_library_from_json, random_chart_set, random_library

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


def test_a_chart_that_both_accepts_and_emits_a_name_is_malformed_input_in_its_file(capsys, tmp_path):
    # compose, cig and tests gen check each chart's interface as they load it,
    # so tests gen blames the chart, not the CIG, even one the CIG does not name
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    text = VENDING.read_text(encoding="utf-8").replace("\nend\n", "\ntransition NoCoins -> NoCoins on setCredit\nend\n")
    ill = _write(tmp_path, "vending.sc", text)
    other = _write(tmp_path, "other.sc", "component Other\nstate X\ninitial X\ntransition X -> X on ping do ping\nend\n")
    runs = [
        (["compose", ill, str(DISPENSER)], ill, "'VendingMachine' both accepts and emits: setCredit"),
        (["cig", ill, str(DISPENSER)], ill, "'VendingMachine' both accepts and emits: setCredit"),
        (["tests", "gen", "--cig", cig_path, ill, str(DISPENSER)], ill, "'VendingMachine' both accepts and emits: setCredit"),
        (["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS, other], other, "'Other' both accepts and emits: ping"),
    ]
    for argv, path, what in runs:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"cig: error: {path}: component {what}\n")


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


def test_tests_gen_rejects_a_component_listed_twice(capsys, tmp_path):
    assert main(["cig", *FIXTURE_ARGS]) == 0
    data = json.loads(capsys.readouterr().out)
    data["components"].append("Dispenser")
    cig_path = _write(tmp_path, "cig.json", json.dumps(data))
    assert main(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cig: error: {cig_path}: invalid CIG document: duplicate component 'Dispenser'\n"


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


@pytest.mark.parametrize("satisfied", ["insert", {"insert": 1, "refill": 2}])
def test_tests_compose_rejects_a_step_satisfied_that_is_no_array(capsys, tmp_path, satisfied):
    # read as a set, a string would give its characters and an object its keys
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    data = json.loads((tmp_path / "comp.json").read_text(encoding="utf-8"))
    data["steps"].insert(0, {"left": "Coins", "right": "Box", "satisfied": satisfied})
    bad = _write(tmp_path, "bad.json", json.dumps(data))
    assert main(["tests", "compose", "--t1", t1, "--t2", t2, "--composition", bad, "--tnew", gen_path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cig: error: {bad}: composition step 'satisfied' must be an array\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["cig", "--format", "svg", str(VENDING), str(DISPENSER)])
    assert err.value.code == 2


_REPO = Path(__file__).resolve().parent.parent


def _parse_with_argparse(parser, argv: list[str]) -> dict | None:
    """``vars`` of what argparse parses ``argv`` to, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


_VALUES = {"--format": "dot", "--cig": "cig.json", "--t1": "t1.json", "--t2": "t2.json", "--tnew": "gen.json"}


def _canonical_argvs():
    """Each command with every set of its options that holds the required
    ones, in every order, and its two files in one run before, between or
    after them."""
    for words, _, _, arguments in cli._COMMANDS:
        options = [name for name in arguments if name.startswith("-")]
        required = {name for name in options if arguments[name].get("required")}
        files = ["a.sc", "b.sc"] if "files" in arguments else []
        for count in range(len(required), len(options) + 1):
            for chosen in itertools.permutations(options, count):
                if not required <= set(chosen):
                    continue
                tokens = [[o] if o == "--report" else [o, _VALUES.get(o, "x.json")] for o in chosen]
                for at in range(len(tokens) + 1):
                    yield [*words, *sum(tokens[:at], []), *files, *sum(tokens[at:], [])]


def _mutants(rng: random.Random, argv: list[str]) -> list[list[str]]:
    """``argv`` with one token joined, cut short, repeated, dropped or added."""
    options = [i for i, token in enumerate(argv) if token.startswith("--")]
    i = rng.choice(options) if options else len(argv) - 1
    token = argv[i]
    out = [
        argv[:i] + [f"{token}={argv[i + 1] if i + 1 < len(argv) else ''}"] + argv[i + 2 :],  # --opt=value
        argv[:i] + [token[:-1]] + argv[i + 1 :],  # an abbreviation, or a cut word
        argv[:i] + [token] + argv[i:],  # repeated
        argv[:i] + argv[i + 1 :],  # missing
        argv + [token],
        [argv[0] + "x", *argv[1:]],
        argv[1:],
    ]
    for extra in ("--", "-h", "--help", "-", "-a.sc", "", "-1", "x=y", "--out=o", "a.sc", "tests", "gen"):
        at = rng.randrange(len(argv) + 1)
        out.append(argv[:at] + [extra] + argv[at:])
        out.append(argv[:at] + [extra] + argv[at + 1 :])  # in place of a token
    return out


def test_fast_parse_matches_argparse():
    parser = cli._build_parser()
    canonical = list(_canonical_argvs())
    for argv in canonical:  # each takes the fast path
        fast = cli._parse_fast(argv)
        assert fast is not None and vars(fast) == _parse_with_argparse(parser, argv), argv
    rng = random.Random("argv-20101020")
    corpus = [m for argv in canonical for m in _mutants(rng, argv)]
    corpus += [["cig", "a.sc", "b.sc", "--format", f] for f in ("svg", "", "JSON", "-dot")]
    corpus += [[], ["bogus"], ["tests"], ["tests", "bogus", "a.sc"], ["-h"], ["--", "parse", "a.sc"], ["parse", ""]]
    corpus += [["tests", "compose", *sum(([o, "p"] for o in ("--t1", "--t2", "--composition", "--tnew")), []), "a.sc"]]
    tokens = ["parse", "cig", "tests", "gen", "compose", "a.sc", "", "--out", "--ou", "--format", "dot", "json",
              "--report", "--cig", "--t1", "--t2", "--tnew", "--composition", "-h", "--", "-", "--out=o", "-x"]
    corpus += [rng.choices(tokens, k=rng.randint(0, 8)) for _ in range(1500)]
    fast_taken = 0
    for argv in corpus:
        fast = cli._parse_fast(argv)
        if fast is not None:
            assert vars(fast) == _parse_with_argparse(parser, argv), argv
            fast_taken += 1
    assert 500 < fast_taken < len(corpus) - 1000, (fast_taken, len(corpus))  # both paths are exercised
    # forms argparse parses, or prints help for, that the fast path leaves to it
    for argv in (["parse", "a.sc", "-h"], ["cig", "a.sc", "--out=o"], ["cig", "a.sc", "--form", "dot"],
                 ["parse", "--", "a.sc"], ["compose", "a.sc", "--out", "o", "--out", "p"], ["cig", "a.sc", "--report", "--report"]):
        assert cli._parse_fast(argv) is None, argv


def test_the_benchmark_session_takes_the_fast_path(monkeypatch):
    monkeypatch.syspath_prepend(str(_REPO / "bench"))
    from session import session_commands
    from workloads import Inputs

    inputs = Inputs(charts=[VENDING, DISPENSER], t1=Path("t1.json"), t2=Path("t2.json"), library_cases=[], expected_edges=None)
    commands = session_commands(inputs, Path("work"))
    assert len(commands) == 6
    parser = cli._build_parser()
    for command in commands:
        argv = list(command.argv)
        fast = cli._parse_fast(argv)
        assert fast is not None and vars(fast) == _parse_with_argparse(parser, argv), argv


# The bytes the cig command printed at the commit before the fast path, with
# COLUMNS=80: (argv, exit code, stdout, stderr). Python 3.10 to 3.13 print
# these alike; an invalid --format is left out, since 3.13 words it differently.
_HELP_AND_USAGE = [
    (["-h"], 0, """\
usage: cig [-h] {parse,compose,cig,tests} ...

Component interaction graphs and test-suite composition for statechart-
specified components.

positional arguments:
  {parse,compose,cig,tests}
    parse               validate statecharts and print their canonical form
    compose             compose the components' interfaces
    cig                 build the component interaction graph
    tests               generate or compose test libraries

options:
  -h, --help            show this help message and exit
""", ""),
    (["tests", "gen", "-h"], 0, """\
usage: cig tests gen [-h] --cig PATH [--out PATH] FILE [FILE ...]

positional arguments:
  FILE        the statechart files the CIG was built from

options:
  -h, --help  show this help message and exit
  --cig PATH  CIG JSON file
  --out PATH  write the result here instead of stdout
""", ""),
    ([], 2, "", """\
usage: cig [-h] {parse,compose,cig,tests} ...
cig: error: the following arguments are required: command
"""),
    (["tests", "gen", "fixtures/vending_machine.sc"], 2, "", """\
usage: cig tests gen [-h] --cig PATH [--out PATH] FILE [FILE ...]
cig tests gen: error: the following arguments are required: --cig
"""),
]


@pytest.mark.parametrize("argv, code, out, err", _HELP_AND_USAGE, ids=[" ".join(["cig", *case[0]]) for case in _HELP_AND_USAGE])
def test_help_and_usage_errors_are_argparse_bytes(argv, code, out, err):
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src"), "COLUMNS": "80"}
    child = subprocess.run([sys.executable, "-m", "cigkit", *argv], cwd=_REPO, env=env, capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


# python -m cigkit that, on exit, prints which of argparse and gettext it imported
_IMPORTED_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted({'argparse', 'gettext'} & sys.modules.keys()), file=sys.stderr))\n"
    "runpy.run_module('cigkit', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "argv, imported", [(["parse", "fixtures/vending_machine.sc"], ""), (["parse"], "argparse gettext")], ids=["parse FILE", "parse"]
)
def test_a_well_formed_command_imports_no_argparse(argv, imported):
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
    child = subprocess.run([sys.executable, "-c", _IMPORTED_AT_EXIT, *argv], cwd=_REPO, env=env, capture_output=True, text=True, timeout=60)
    assert child.stderr.splitlines()[-1] == imported  # a usage error still imports them


# python -m cigkit that, on exit, prints the cigkit modules and json if it imported them
_LAYERS_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m in ('cigkit', 'json') or m.startswith('cigkit.')), file=sys.stderr))\n"
    "runpy.run_module('cigkit', run_name='__main__', alter_sys=True)\n"
)


def test_a_command_loads_only_the_layers_it_runs(tmp_path):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("cig", "comp", "gen", "t1", "t2")}
    assert main(["cig", *FIXTURE_ARGS, "--out", paths["cig"]]) == 0
    assert main(["compose", *FIXTURE_ARGS, "--out", paths["comp"]]) == 0
    assert main(["tests", "gen", "--cig", paths["cig"], *FIXTURE_ARGS, "--out", paths["gen"]]) == 0
    for name in ("t1", "t2"):
        Path(paths[name]).write_text('{"cases": []}', encoding="utf-8")
    for argv, layers in [
        (["parse", *FIXTURE_ARGS], "statechart"),
        (["cig", *FIXTURE_ARGS, "--format", "dot"], "cig statechart"),
        (["tests", "compose", "--t1", paths["t1"], "--t2", paths["t2"], "--composition", paths["comp"],
          "--tnew", paths["gen"]], "documents testlib"),
    ]:
        loaded = ["cigkit", *(f"cigkit.{layer}" for layer in ("cli", "components", "errors", *layers.split()))]
        loaded += ["json"] if "documents" in layers else []
        env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
        child = subprocess.run([sys.executable, "-c", _LAYERS_AT_EXIT, *argv], cwd=_REPO, env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stderr.splitlines()[-1].split() == sorted(loaded), argv


def test_every_exported_name_is_the_object_its_module_defines():
    for name in cigkit.__all__:
        value = getattr(cigkit, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert len(set(cigkit.__all__)) == len(cigkit.__all__) and set(cigkit.__all__) <= set(dir(cigkit))
    with pytest.raises(AttributeError):
        cigkit.no_such_name


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
    monkeypatch.setattr(cigkit.testlib, "generate_new_tests", generate)  # where the handler imports it from
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


def _authored(count: int, steps: int = 1) -> list:
    """``count`` cases that tests compose keeps from the fixtures' composition, ``steps`` steps each."""
    step = {"event": "insert", "expected_state": {"component": "VendingMachine", "state": "SingleCoin"}}
    case = {"owner": "VendingMachine", "services": ["insert"], "steps": [step] * steps}
    return [{"id": f"vm_{i}", **case} for i in range(count)]


_CASES = json.dumps(_authored(3)).encode()
_LONG = json.dumps({"cases": _authored(150)}, indent=2).encode()  # some 46,000 characters, nearly three _CHUNKs
_CRLF = _LONG.replace(b"\n", b"\r\n")

# a library file's bytes, and the exit code tests compose gives for it
_LIBRARY_FILES = {
    "invalid UTF-8 after the first chunk": (_LONG.replace(b'"vm_149"', b'"vm_\xff"'), 2),
    "a UTF-8 BOM": (b"\xef\xbb\xbf" + _LONG, 2),
    "a CRLF file with a syntax error": (_CRLF.replace(b'"vm_120"', b'x"vm_120"'), 2),
    "a duplicate 'cases' key": (b'{"cases": [], "cases": ' + _CASES + b"}", 0),
    "an escaped 'cases' key": (_LONG.replace(b'"cases"', b'"\\u0063ases"'), 0),
    "extra top-level keys": (b'{"about": {"x": [1, 2.5, null]}, "cases": ' + _CASES + b', "more": "y"}', 0),
    "a case longer than _CHUNK": (json.dumps({"cases": _authored(2, steps=300)}).encode(), 0),
    "trailing data": (_LONG + b"\n{}", 2),
    "an empty file": (b"", 2),
    "an empty object": (b"{}", 2),
    "a 'cases' object": (b'{"cases": {}}', 2),
    "a truncated file": (_LONG[: len(_LONG) // 2], 2),
}


def _whole_file_error(path) -> str:
    """The error line for a library file read whole by the reference reader, or ""."""
    try:
        oracle_library_from_json(path.read_text(encoding="utf-8"))
    except (CigError, UnicodeDecodeError) as exc:
        return f"cig: error: {path}: {exc}\n"
    return ""


def _whole_file_read(read):
    raise ValueError("read the file whole")


@pytest.mark.parametrize("data, code", _LIBRARY_FILES.values(), ids=list(_LIBRARY_FILES))
def test_tests_compose_reads_a_library_file_as_a_whole_file_read_does(capsys, tmp_path, monkeypatch, data, code):
    _, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    library = tmp_path / "library.json"
    library.write_bytes(data)
    argv = ["tests", "compose", "--t1", str(library), "--t2", t2, "--composition", comp_path, "--tnew", gen_path]
    streamed = main(argv), capsys.readouterr()
    assert streamed[0] == code
    assert streamed[1].err == _whole_file_error(library)
    undecodable = data.find(b"\xff")
    if undecodable >= 0:  # the offset counts bytes from the start of the file
        assert f"in position {undecodable}:" in streamed[1].err
    monkeypatch.setattr(cigkit.documents, "_stream_library", _whole_file_read)
    assert (main(argv), capsys.readouterr()) == streamed


def _outcome(read, text):
    """The library ``read`` loads from ``text``, or the error's class and message."""
    try:
        return read(text)
    except CigError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text",
    [
        '{"cases": [], "cases": ' + _CASES.decode() + "}",
        '{"about": 1, "cases": ' + _CASES.decode() + "}",
        '{"cases": ' + _CASES.decode() + ', "more": "y"}',
        "{}",
        '{"cases": {}}',
    ],
    ids=["a second 'cases' key", "a key before 'cases'", "a key after 'cases'", "an empty object", "a 'cases' object"],
)
def test_the_streamed_reader_takes_only_a_lone_cases_array(monkeypatch, text):
    # every writer writes {"cases": [...]}; any other document is read again
    # whole, once, and gets the whole-file read's library or error
    with pytest.raises(ValueError):
        cigkit.documents._stream_library(io.StringIO(text).read)
    wholes = 0
    chunked = cigkit.documents._library_from_chunks

    def counted(read, whole):
        def counted_whole():
            nonlocal wholes
            wholes += 1
            return whole()

        return chunked(read, counted_whole)

    monkeypatch.setattr(cigkit.documents, "_library_from_chunks", counted)
    streamed = _outcome(lambda t: cigkit.documents.library_from_stream(io.StringIO(t)), text)
    assert streamed == _outcome(oracle_library_from_json, text)
    assert wholes == 1


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_tests_compose_reads_a_library_from_a_pipe(capsys, tmp_path):
    # a pipe cannot be read again for the whole-file error, so it is read whole
    t1, t2, comp_path, gen_path = _tests_compose_files(tmp_path, capsys)
    argv = ["tests", "compose", "--t2", t2, "--composition", comp_path, "--tnew", gen_path]
    assert main([*argv, "--t1", t1]) == 0
    expected = capsys.readouterr()
    for data, code in ((Path(t1).read_bytes(), 0), (b'{"cases": []} {}', 2)):
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        try:
            assert main([*argv, "--t1", f"/dev/fd/{read_end}"]) == code
        finally:
            os.close(read_end)
        captured = capsys.readouterr()
        if code == 0:
            assert captured == expected
        else:
            assert captured.err == f"cig: error: /dev/fd/{read_end}: invalid JSON: Extra data: line 1 column 15 (char 14)\n"


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
    assert out.err == (
        "cig: error: CIG does not match its statecharts: they build another CIG, "
        "missing node VendingMachine.SingleCoin (G)\n"
    )


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
        "cig: error: CIG does not match its statecharts: they build another CIG, "
        "missing node Dispenser.Enabled (G)\n"
    )


def test_tests_gen_rejects_a_cig_missing_edges_the_charts_build(capsys, tmp_path):
    # the dispenser learned to answer setCredit with ok from Insufficient after
    # the CIG was built: every old edge still generates, but three are missing
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    text = DISPENSER.read_text(encoding="utf-8").replace(
        "on dispense do ok\n", "on dispense do ok\ntransition Insufficient -> Enabled on setCredit do ok\n"
    )
    grown = _write(tmp_path, "dispenser.sc", text)
    assert main(["cig", str(VENDING), grown]) == 0
    assert len(json.loads(capsys.readouterr().out)["edges"]) == 8
    out = tmp_path / "gen.json"
    assert main(["tests", "gen", "--cig", cig_path, str(VENDING), grown, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the warnings for cases of the rejected CIG are never heard
    assert captured.err == (
        "cig: error: CIG does not match its statecharts: they build another CIG, "
        "missing node Dispenser.Insufficient (P,R)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("components", [["Dispenser"], []])
def test_tests_gen_rejects_a_cig_fewer_than_two_charts_build(capsys, tmp_path, components):
    empty = {"components": components, "removed": [], "nodes": [], "edges": []}
    cig_path = _write(tmp_path, "cig.json", json.dumps(empty))
    assert main(["tests", "gen", "--cig", cig_path, str(DISPENSER)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cig: error: CIG does not match its statecharts: need at least two statecharts\n"


def test_tests_gen_ignores_charts_the_cig_does_not_name(capsys, tmp_path):
    # an extra chart, even one that would add edges, leaves the cases as they were
    cig_path = str(tmp_path / "cig.json")
    assert main(["cig", *FIXTURE_ARGS, "--out", cig_path]) == 0
    assert main(["tests", "gen", "--cig", cig_path, *FIXTURE_ARGS]) == 0
    expected = capsys.readouterr()
    text = DISPENSER.read_text(encoding="utf-8").replace("component Dispenser", "component Twin")
    twin = _write(tmp_path, "twin.sc", text)
    assert main(["tests", "gen", "--cig", cig_path, twin, *FIXTURE_ARGS]) == 0
    assert capsys.readouterr() == expected


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


def _cig_mutants(rng, data):
    """The CIG document with one edge deleted, one edge added, one edge
    rewired (its source, target or service changed), and its edges, nodes and
    removed refs reordered, as hand edits or other tools would."""
    nodes = [(node["component"], node["state"]) for node in data["nodes"]]
    services = sorted({edge["service"] for edge in data["edges"]})
    edges = data["edges"]

    def ref(node):
        return {"component": node[0], "state": node[1]}

    i, j = rng.randrange(len(edges)), rng.randrange(len(edges) + 1)
    source = rng.choice(nodes)
    target = rng.choice([node for node in nodes if node[0] != source[0]])
    added = {"from": ref(source), "to": ref(target), "service": rng.choice(services)}
    rewired = dict(edges[i])
    side = rng.choice(("from", "to", "service"))
    if side == "service":
        rewired["service"] = rng.choice(services)
    else:
        rewired[side] = ref(rng.choice([node for node in nodes if node[0] == rewired[side]["component"]]))
    return {
        "delete": {**data, "edges": edges[:i] + edges[i + 1 :]},
        "add": {**data, "edges": edges[:j] + [added] + edges[j:]},
        "rewire": {**data, "edges": edges[:i] + [rewired] + edges[i + 1 :]},
        "permute": {key: rng.sample(value, len(value)) for key, value in data.items()},
    }


def _same_graph(a, b):
    return all(set(getattr(a, key)) == set(getattr(b, key)) for key in ("components", "removed", "nodes", "edges"))


# sha256 of every unmutated run's exit code and stdout below, as the code
# before the CIG comparison gave them
_UNMUTATED_DIGEST = "17149feea694709fc2322a431e0d4833dbac3e48713ed4b7bdaf5236aeae79d8"


def test_a_cig_other_than_the_one_the_charts_build_exits_2(capsys, tmp_path):
    # seeded random chart sets: every mutant the charts do not build exits 2,
    # and the CIG they do build, with the charts in either order and its own
    # lists in any order, gives the same exit code and bytes as ever
    rng = random.Random("missing-edges-20101018")
    digest, unequal = hashlib.sha256(), {"delete": 0, "add": 0, "rewire": 0, "permute": 0}
    built = 0
    for i in range(150):
        charts = ChartSet(tuple(random_chart_set(rng, 2 + i % 3)))
        try:
            cig = build_cig(charts)
        except CigError:
            continue
        files = [_write(tmp_path, f"{chart.component_name}.sc", serialize_statechart(chart)) for chart in charts]
        cig_path = _write(tmp_path, "cig.json", cig_to_json(cig))
        code = main(["tests", "gen", "--cig", cig_path, *files])
        out = capsys.readouterr().out
        digest.update(f"{code}\n{out}".encode())
        built += 1
        assert main(["tests", "gen", "--cig", cig_path, *files[::-1]]) == code  # chart order does not matter
        assert capsys.readouterr().out == out
        for kind, mutant in _cig_mutants(rng, json.loads(cig_to_json(cig))).items():
            text = json.dumps(mutant, indent=2) + "\n"
            loaded = True
            try:
                same = _same_graph(cig_from_json(text), cig)
            except CigError:
                same = loaded = False
            _write(tmp_path, "cig.json", text)
            assert main(["tests", "gen", "--cig", cig_path, *files]) == (code if same else 2), (kind, text)
            captured = capsys.readouterr()
            assert captured.out == (out if same else "")
            if loaded and not same:  # one rule names every loadable stale CIG's first difference
                assert captured.err.count("\n") == 1 and captured.err.startswith(
                    "cig: error: CIG does not match its statecharts: they build another CIG, "
                ), (kind, captured.err)
            unequal[kind] += not same
    assert unequal.pop("permute") == 0
    assert built >= 100 and min(unequal.values()) >= 50, (built, unequal)
    assert digest.hexdigest() == _UNMUTATED_DIGEST


# runs each command line of a JSON list in this one process, and prints each
# one's exit code, stdout, stderr and --out text (None when it wrote no file)
_RUN_CORPUS = """
import contextlib, io, json, os, sys
from cigkit.cli import main

outcomes = []
for argv in json.load(sys.stdin):
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = None
    if out is not None and os.path.exists(out):
        with open(out, encoding="utf-8") as stream:
            written = stream.read()
    outcomes.append([argv, code, stdout.getvalue(), stderr.getvalue(), written])
json.dump(outcomes, sys.stdout)
"""

_MALFORMED_CHARTS = [
    DISJOINT_A,
    "component A\nstate X\ninitial Y\nend\n",
    "component A\nstate X\nstate X\ninitial X\nend\n",
    "component 1A\nstate X\ninitial X\nend\n",
    "component A\nstate X\ninitial X\ntransition X -> Z on go\nend\n",
    "component A\nstate X\ninitial X\ntransition X -> X on setCredit do setCredit\nend\n",
    "component A\nstate X\ninitial X\ntransition X -> X on go\n",
    "component A\nstate X\ninitial X\ntransition X -> X on go do a, b, a\nend\n",
]


def _hash_seed_corpus(tmp_path) -> list[list[str]]:
    """The README session on the fixtures and on one seeded random chart set,
    tests gen on stale CIGs of both, and malformed charts beside the vending
    machine."""
    rng = random.Random("hash-seed-20101020")
    while True:  # the first draw whose session runs through
        charts = ChartSet(tuple(random_chart_set(rng, 3)))
        try:
            if len(generate_new_tests(build_cig(charts), charts)):
                break
        except CigError:
            pass
    sets = {"fixtures": _fixture_charts_for_cli(), "random": charts}
    corpus = []
    for name, charts in sets.items():
        folder = tmp_path / name
        folder.mkdir()
        files = [_write(folder, f"{chart.component_name}.sc", serialize_statechart(chart)) for chart in charts]
        universe = sorted(compose_many([extract_interfaces(chart) for chart in charts]).all_satisfied()) + ["env0"]
        t1, t2 = (
            _write(folder, f"{prefix}.json", library_to_json(TestLibrary(tuple(random_library(rng, prefix, universe)))))
            for prefix in ("t1", "t2")
        )
        comp, cig_path, gen = (str(folder / f"{n}.json") for n in ("comp", "cig", "gen"))
        corpus += [
            ["parse", *files],
            ["compose", *files, "--out", comp],
            ["cig", *files, "--out", cig_path],
            ["cig", *files, "--format", "dot", "--report"],
            ["tests", "gen", "--cig", cig_path, *files, "--out", gen],
            ["tests", "compose", "--t1", t1, "--t2", t2, "--composition", comp, "--tnew", gen],
        ]
        for kind, mutant in _cig_mutants(rng, json.loads(cig_to_json(build_cig(charts)))).items():
            stale = _write(folder, f"{kind}.json", json.dumps(mutant, indent=2) + "\n")
            corpus.append(["tests", "gen", "--cig", stale, *files])
    cig_path = str(tmp_path / "fixtures" / "cig.json")
    for i, text in enumerate(_MALFORMED_CHARTS):
        bad = _write(tmp_path, f"bad{i}.sc", text)
        corpus += [["parse", bad], ["cig", str(VENDING), bad], ["tests", "gen", "--cig", cig_path, str(VENDING), bad]]
    return corpus


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # one child per seed runs the whole corpus, in order, on the same files
    corpus = json.dumps(_hash_seed_corpus(tmp_path))
    env = {**os.environ, "PYTHONPATH": str(Path(cigkit.__file__).resolve().parent.parent)}
    runs = [
        subprocess.run(
            [sys.executable, "-c", _RUN_CORPUS], input=corpus, env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    outcomes = json.loads(runs[0])
    assert {code for _, code, *_ in outcomes} == {0, 1, 2}
    assert sum(written is not None for *_, written in outcomes) == 6
    for ours, theirs in zip(outcomes, json.loads(runs[1]), strict=True):
        assert ours == theirs
