"""Seeded, bounded fuzzing of the statechart parser and of the CLI's JSON inputs.

Mutated chart text may raise only ``StatechartError``, and it parses to the
same chart, or fails with the same error, message, line and column, as the
character-walking reference parser in ``oracles.py``. Mutated library
documents load to the same library, or fail with the same error and message,
as the reference reader without a step memo, also when read from a file one,
three or ``_CHUNK`` characters at a time. Mutated CIG, composition and
composed library result documents load to the pinned outcomes. Mutated CIG,
library and composition documents given to ``cli.run`` must never raise, and
every run exits 0, 1 or 2.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DISPENSER, VENDING
from cigkit import (
    CigError,
    SchemaError,
    StatechartError,
    TestLibrary,
    cig_from_json,
    cig_to_json,
    composed_result_from_json,
    composed_result_to_json,
    composition_result_from_json,
    composition_result_to_json,
    library_from_json,
    parse_statechart,
    serialize_statechart,
)
import cigkit.documents
from cigkit.cli import run
from cigkit.documents import library_from_stream
from oracles import oracle_library_from_json, oracle_parse_statechart, random_chart

FIXTURE_ARGS = [str(VENDING), str(DISPENSER)]

# characters that carry structure in the chart format or in JSON
_CHART_CHARS = "[[]]()#->,. \n_aX1"
# plus whitespace the lexical rules treat differently (a tab, a vertical tab that
# str.splitlines breaks on, a no-break space that is not ASCII whitespace) and
# more of the characters that start a word, a parameter list or a comment
_LEXICAL_CHARS = _CHART_CHARS + "\t\x0b\xa0 ()#,"
_JSON_CHARS = '[]{}",:-.0e1 \\ntruefalsenull'
_VALUES = (None, True, 0, -1, 2.5, "", "x", "Empty", "setCredit", "1x", [], {}, [1], {"a": 1})


def _mutate_text(rng: random.Random, text: str, alphabet: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(4)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(alphabet))
        elif op == 2 and i < len(chars):
            chars[i] = rng.choice(alphabet)
        else:  # copy a slice of the text somewhere else
            j = rng.randrange(len(chars))
            chars[i:i] = chars[j : j + rng.randint(1, 12)]
    return "".join(chars)


def _nodes(data, out):
    """Every (container, key) pair in a JSON value, depth first."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        out.append((data, key))
        _nodes(value, out)
    return out


def _mutate_value(rng: random.Random, text: str) -> str:
    data = json.loads(text)
    nodes = _nodes(data, [])
    for _ in range(rng.randint(1, 2)):
        container, key = rng.choice(nodes)
        op = rng.randrange(3)
        if op == 0:
            container[key] = rng.choice(_VALUES)
        elif op == 1 and isinstance(container, list):
            container.append(container[key])  # a duplicate
        else:
            del container[key]
            return json.dumps(data)  # later nodes may be gone
    return json.dumps(data)


def _mutant(rng: random.Random, text: str) -> str:
    if rng.random() < 0.5:
        return _mutate_text(rng, text, _JSON_CHARS)
    return _mutate_value(rng, text)


def _fixture_texts() -> list[str]:
    return [VENDING.read_text(encoding="utf-8"), DISPENSER.read_text(encoding="utf-8")]


def _fixture_mutants() -> list[str]:
    rng = random.Random(20101018)
    texts = _fixture_texts()
    return [_mutate_text(rng, rng.choice(texts), _CHART_CHARS) for _ in range(2000)]


def test_mutated_chart_text_raises_only_statechart_errors():
    for text in _fixture_mutants():
        try:
            parse_statechart(text)
        except StatechartError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} on\n{text}")


def _outcome(parse, text: str):
    """The parsed chart, or the error's class, message, line and column."""
    try:
        return parse(text)
    except StatechartError as exc:
        return type(exc), str(exc), exc.line, exc.column


def test_parser_matches_the_character_walking_oracle():
    rng = random.Random("lexical-20101018")
    charts = [
        random_chart(rng, f"C{i}", events=("go", "e1"), actions=("ping", "a1"), max_transitions=6)
        for i in range(40)
    ]
    bases = _fixture_texts() + [serialize_statechart(chart) for chart in charts]
    texts = _fixture_mutants() + [_mutate_text(rng, rng.choice(bases), _LEXICAL_CHARS) for _ in range(3000)]
    differences = [
        text for text in texts if _outcome(parse_statechart, text) != _outcome(oracle_parse_statechart, text)
    ]
    assert not differences, f"{len(differences)} of {len(texts)} texts differ, first:\n{differences[0]}"


# Valid raw steps, some equal after validation (no actions, an empty action
# list, extra keys) and some whose fields would run together if a key
# flattened them (two actions against a landing state).
_STEPS = (
    {"event": "go"},
    {"event": "go", "expected_actions": []},
    {"event": "go", "note": [1], "expected_actions": []},
    {"event": "go", "expected_actions": ["A", "s"]},
    {"event": "go", "expected_state": {"component": "A", "state": "s"}},
    {"event": "go", "expected_state": {"state": "s", "component": "A", "x": None}},
    {"event": "go", "expected_state": {"component": "A", "state": "s"}, "expected_actions": ["ok"]},
    {"event": "ok", "expected_actions": ["go", "go"]},
)
# Raw steps the reader rejects, with values a step memo must not key on.
_BAD_STEPS = (
    {"event": 5},
    {"event": True},
    {"event": 1},
    {"event": "1x"},
    {"event": "go", "expected_state": None},
    {"event": "go", "expected_state": {"component": "", "state": ""}},
    {"event": "go", "expected_state": {"component": True, "state": "s"}},
    {"event": "go", "expected_state": {"component": 1, "state": "s"}},
    {"event": "go", "expected_actions": [["ok"]]},
    {"event": "go", "expected_actions": [{"a": 1}]},
    {"event": "go", "expected_actions": [True]},
    {"event": "go", "expected_actions": [1]},
    {"event": "go", "expected_actions": "ok"},
)


def _library_text(rng: random.Random, cases: int, bad: float) -> str:
    """A library document whose cases repeat steps from ``_STEPS``; with
    probability ``bad`` one step is replaced by one of ``_BAD_STEPS``."""
    document = {
        "cases": [
            {
                "id": f"c{i}",
                "owner": "A",
                "services": rng.sample(["go", "ok", "s"], rng.randint(0, 2)),
                "steps": [rng.choice(_STEPS) for _ in range(rng.randint(0, 4))],
            }
            for i in range(cases)
        ]
    }
    if rng.random() < bad:
        steps = rng.choice(document["cases"])["steps"]
        steps.insert(rng.randint(0, len(steps)), rng.choice(_BAD_STEPS))
    return json.dumps(document)


def _library_outcome(read, text: str):
    """The loaded library, or the error's class and message."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def library_texts() -> list[str]:
    rng = random.Random("step-memo-20101018")
    texts = [_library_text(rng, rng.randint(1, 12), bad=0.4) for _ in range(1500)]
    return texts + [_mutant(rng, _library_text(rng, rng.randint(1, 6), bad=0.0)) for _ in range(2500)]


def test_library_reader_matches_the_per_step_oracle(library_texts):
    # plus texts json.loads refuses with a RecursionError, or a ValueError past
    # the interpreter's digit limit, which the reader reports as invalid JSON
    texts = library_texts + ["[" * 100_000, '{"a": ' * 100_000, "1" * 5000, '{"a": [' + "9" * 5000 + "]}"]
    outcomes = [
        (_library_outcome(library_from_json, text), _library_outcome(oracle_library_from_json, text))
        for text in texts
    ]
    differences = [text for text, (got, want) in zip(texts, outcomes) if got != want]
    assert not differences, f"{len(differences)} of {len(texts)} documents differ, first:\n{differences[0]}"
    loaded = sum(not isinstance(got, tuple) for got, _ in outcomes)
    assert loaded > 1000 and len(texts) - loaded > 1000  # both loads and errors are compared
    assert all(got[0] is SchemaError for got, _ in outcomes[-4:])


def _read_file(text: str) -> TestLibrary:
    """The library in ``text``'s UTF-8 bytes, read as ``cig tests compose`` reads a file."""
    return library_from_stream(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"))


@pytest.mark.parametrize("chunk", [1, 3, cigkit.documents._CHUNK])
def test_file_reader_matches_the_per_step_oracle(monkeypatch, library_texts, chunk):
    monkeypatch.setattr(cigkit.documents, "_CHUNK", chunk)
    differences = [
        text
        for text in library_texts
        if _library_outcome(_read_file, text) != _library_outcome(oracle_library_from_json, text)
    ]
    assert not differences, f"{len(differences)} of {len(library_texts)} documents differ, first:\n{differences[0]}"


def test_a_file_of_distinct_steps_read_in_small_chunks_keeps_each_step(monkeypatch):
    # each raw case is freed once read, and CPython gives a later, different
    # step its id: a step memo keyed by id() would hand back the freed step
    monkeypatch.setattr(cigkit.documents, "_CHUNK", 3)
    cases = [
        {"id": f"c{i}", "owner": "A", "services": [], "steps": [{"event": f"e{i}", "expected_actions": [f"a{i}"]}]}
        for i in range(2500)
    ]
    text = json.dumps({"cases": cases})
    assert _read_file(text) == oracle_library_from_json(text)


def test_equal_steps_are_one_object_within_a_load_and_never_across_loads():
    text = _library_text(random.Random("memo-scope"), 80, bad=0.0)
    first, second = library_from_json(text), library_from_json(text)
    assert first == second == oracle_library_from_json(text)
    steps = [step for case in first for step in case.steps]
    assert len({id(step) for step in steps}) == len(set(steps)) < len(steps)
    assert not {id(step) for step in steps} & {id(step) for case in second for step in case.steps}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The fixtures' CIG, composition and generated library as the CLI
    writes them, two authored libraries, and the composed library result
    ``tests compose`` writes for them."""
    work = tmp_path_factory.mktemp("fuzz")
    paths = {name: work / f"{name}.json" for name in ("cig", "comp", "gen", "t1", "t2", "composed")}
    assert run(["cig", *FIXTURE_ARGS, "--out", str(paths["cig"])]).exit_code == 0
    assert run(["compose", *FIXTURE_ARGS, "--out", str(paths["comp"])]).exit_code == 0
    assert run(["tests", "gen", "--cig", str(paths["cig"]), *FIXTURE_ARGS, "--out", str(paths["gen"])]).exit_code == 0
    step = {
        "event": "insert",
        "expected_state": {"component": "VendingMachine", "state": "SingleCoin"},
        "expected_actions": ["setCredit"],
    }
    case = {"id": "vm_credit", "owner": "VendingMachine", "services": ["setCredit"], "steps": [step]}
    paths["t1"].write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    paths["t2"].write_text('{"cases": []}', encoding="utf-8")
    libraries = ["--t1", str(paths["t1"]), "--t2", str(paths["t2"]), "--tnew", str(paths["gen"])]
    argv = ["tests", "compose", *libraries, "--composition", str(paths["comp"]), "--out", str(paths["composed"])]
    assert run(argv).exit_code == 0
    return paths


@pytest.mark.parametrize("target", ["cig", "comp", "gen", "t1"])
def test_mutated_json_inputs_exit_cleanly(capsys, tmp_path, documents, target):
    rng = random.Random(f"{target}-20101018")
    original = documents[target].read_text(encoding="utf-8")
    mutant = tmp_path / "mutant.json"
    paths = {name: str(path) for name, path in {**documents, target: mutant}.items()}
    if target == "cig":
        argv = ["tests", "gen", "--cig", paths["cig"], *FIXTURE_ARGS]
    else:
        argv = ["tests", "compose", "--t1", paths["t1"], "--t2", paths["t2"],
                "--composition", paths["comp"], "--tnew", paths["gen"]]
    codes = set()
    for _ in range(120):
        mutant.write_text(_mutant(rng, original), encoding="utf-8")
        codes.add(run(argv).exit_code)
        capsys.readouterr()
    assert codes <= {0, 1, 2}
    assert 2 in codes  # the mutants do reach the error paths


_REF_VALUES = (5, 2.5, None, True, [], ["A"], {}, {"component": "A"})


def _ref_mutant(rng: random.Random, text: str) -> str:
    """``text`` with one to three of its refs (objects with a 'component' and
    a 'state') given a value of another type, their keys in the other order,
    or an extra key."""
    data = json.loads(text)
    refs = [
        (container, key)
        for container, key in _nodes(data, [])
        if isinstance(container[key], dict) and {"component", "state"} <= container[key].keys()
    ]
    for container, key in rng.sample(refs, min(len(refs), rng.randint(1, 3))):
        ref = container[key]
        op = rng.randrange(3)
        if op == 0:
            ref[rng.choice(("component", "state"))] = rng.choice(_REF_VALUES)
        elif op == 1:
            container[key] = dict(reversed(ref.items()))
        else:
            ref[rng.choice(("note", "kinds", "state_"))] = rng.choice(("A", 1, None, ["x"]))
    return json.dumps(data, indent=rng.choice((None, 2)))


_LOADERS = {
    "cig": (cig_from_json, cig_to_json),
    "comp": (composition_result_from_json, composition_result_to_json),
    "composed": (composed_result_from_json, composed_result_to_json),
}


def _loader_outcome(target: str, text: str) -> str:
    """The document the CLI writes for what ``text`` loads to, or the error's
    class and message. json's own syntax messages differ across Python
    versions (3.13 names trailing commas), so those count as one outcome."""
    load, write = _LOADERS[target]
    try:
        return write(load(text))
    except CigError as exc:
        message = "invalid JSON" if str(exc).startswith("invalid JSON: ") else str(exc)
        return f"{type(exc).__name__}: {message}"


def _loader_digest(paths: list[str]) -> str:
    """sha256 of the outcomes of seeded mutants of the documents in ``paths``,
    one for each of ``_LOADERS`` in order."""
    rng = random.Random("loader-outcomes-20101018")
    outcomes = []
    for target, path in zip(_LOADERS, paths):
        original = Path(path).read_text(encoding="utf-8")
        texts = [original, *(_mutant(rng, original) for _ in range(400))]
        if target != "comp":  # a composition result holds no refs
            texts += [_ref_mutant(rng, original) for _ in range(300)]
        outcomes += [f"{target}\n{_loader_outcome(target, text)}\n" for text in texts]
    loaded = sum(outcome.split("\n", 1)[1].startswith("{") for outcome in outcomes)
    assert 300 < loaded < len(outcomes) - 300, loaded  # both documents and errors are pinned
    return hashlib.sha256("".join(outcomes).encode()).hexdigest()


# the digest as the loaders that shared equal objects while decoding gave it
_LOADER_DIGEST = "8f22f71b97828b1e744dd6f002783de3ec48d0ae9edac1075141f7b85c7399d8"


def test_loader_outcomes_are_pinned(documents):
    assert _loader_digest([str(documents[target]) for target in _LOADERS]) == _LOADER_DIGEST


def test_a_step_with_an_invalid_component_and_action_reports_the_component(documents):
    # a mutant the seeded ones miss: the loader gives a step the load's names
    # and must still leave the step to check its fields in order
    data = json.loads(documents["composed"].read_text(encoding="utf-8"))
    step = next(c[k] for c, k in _nodes(data, []) if isinstance(c[k], dict) and "expected_state" in c[k])
    step["expected_state"]["component"] = "1bad"
    step["expected_actions"].append("2bad")
    outcome = _loader_outcome("composed", json.dumps(data, indent=2))
    assert outcome == "SchemaError: invalid test step: invalid component name: '1bad'"


_INVALID_SERVICE_LISTS = """\
from cigkit import CigError, component_from_json, library_from_json
case = '{"cases": [{"id": "c", "owner": "A", "services": %s, "steps": []}]}'
for load, text in [
    (component_from_json, '{"name": "A", "provided": ["1x", "2y", "3z"], "required": []}'),
    (component_from_json, '{"name": "A", "provided": ["a"], "required": ["b", "1x", "2y"]}'),
    (library_from_json, case % '["1x", "2y", "3z"]'),
    (library_from_json, case % '["a", null, "1x", 5]'),
    (library_from_json, case % '["a", "1x", [1]]'),
]:
    try:
        load(text)
    except CigError as exc:
        print(exc)
"""


_INVALID_SERVICE_SETS = """\
from cigkit import CigError, Component, CompositionStep, TestCase, TestLibrary, compose_libraries, satisfied_tests
names, empty = {"1x", "2y", "3z"}, TestLibrary()
for make in (
    lambda: Component(name="A", provided=names),
    lambda: Component(name="A", required={"a"}, provided={"b"}, internal_map={("a", "2y"), ("a", "1x")}),
    lambda: CompositionStep("A", "B", names),
    lambda: TestCase("c", "A", {"a", 5, None, ("t",)}, ()),
    lambda: satisfied_tests(empty, empty, names),
    lambda: compose_libraries(empty, empty, names, empty),
):
    try:
        make()
    except (CigError, ValueError) as exc:
        print(exc)
"""


def test_an_invalid_service_set_gives_one_message_under_every_hash_seed():
    # a set's members are checked sorted by repr, which also orders mixed types
    env = {**os.environ, "PYTHONPATH": str(Path(cigkit.__file__).resolve().parent.parent)}
    messages = {
        subprocess.run(
            [sys.executable, "-c", _INVALID_SERVICE_SETS],
            env={**env, "PYTHONHASHSEED": str(seed)}, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in range(5)
    }
    assert messages == {
        "invalid service name: '1x'\n"
        "invalid service name: '1x'\n"
        "invalid service name: '1x'\n"
        "invalid service name: ('t',)\n"
        "invalid service name: '1x'\n"
        "invalid service name: '1x'\n"
    }


def test_an_invalid_service_list_gives_one_message_under_every_hash_seed():
    # the loaders check names in document order, not in a set's, which the
    # hash seed orders; an unhashable name is still reported as one
    env = {**os.environ, "PYTHONPATH": str(Path(cigkit.__file__).resolve().parent.parent)}
    messages = {
        subprocess.run(
            [sys.executable, "-c", _INVALID_SERVICE_LISTS],
            env={**env, "PYTHONHASHSEED": str(seed)}, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in range(6)
    }
    assert messages == {
        "invalid component object: invalid service name: '1x'\n"
        "invalid component object: invalid service name: '1x'\n"
        "invalid test case: invalid service name: '1x'\n"
        "invalid test case: invalid service name: None\n"
        "invalid test case: unhashable type: 'list'\n"
    }
