"""Seeded, bounded fuzzing of the statechart parser and of the CLI's JSON inputs.

Mutated chart text may raise only ``StatechartError``. Mutated CIG, library
and composition documents given to ``cli.run`` must never raise, and every
run exits 0, 1 or 2.
"""

import json
import random

import pytest

from conftest import DISPENSER, VENDING
from cigkit import StatechartError, parse_statechart
from cigkit.cli import run

FIXTURE_ARGS = [str(VENDING), str(DISPENSER)]

# characters that carry structure in the chart format or in JSON
_CHART_CHARS = "[[]]()#->,. \n_aX1"
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


def test_mutated_chart_text_raises_only_statechart_errors():
    rng = random.Random(20101018)
    texts = [VENDING.read_text(encoding="utf-8"), DISPENSER.read_text(encoding="utf-8")]
    for _ in range(2000):
        text = _mutate_text(rng, rng.choice(texts), _CHART_CHARS)
        try:
            parse_statechart(text)
        except StatechartError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} on\n{text}")


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The fixtures' CIG, composition and generated library as the CLI
    writes them, and two authored libraries."""
    work = tmp_path_factory.mktemp("fuzz")
    paths = {name: work / f"{name}.json" for name in ("cig", "comp", "gen", "t1", "t2")}
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
