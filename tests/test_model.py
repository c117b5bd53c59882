"""The model classes are frozen value objects with a frozen dataclass's
semantics: construction by position or keyword, equality within one class,
the hash of the field tuple, the ``Name(field=value, ...)`` repr, and no
assignment or deletion; and importing the CLI pulls in none of the modules
``dataclasses`` would."""

import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path

import pytest

import cigkit
from cigkit import (
    ActionEmission,
    ChartSet,
    Cig,
    CigEdge,
    CigError,
    CigNode,
    ComposedLibraryResult,
    Component,
    CompositionResult,
    CompositionStep,
    ServiceSides,
    Statechart,
    TestCase,
    TestLibrary,
    TestStep,
    Transition,
    build_cig,
    compose_libraries,
    compose_many,
    composed_result_from_json,
    composed_result_to_json,
    cross_services,
    extract_interfaces,
    generate_new_tests,
)
from oracles import random_chart_set, random_library

# every model class with its fields in order: positional construction, the
# hash and the repr all follow this order
FIELDS = {
    ActionEmission: ("action", "params"),
    Transition: ("source", "target", "event", "guard", "actions"),
    Statechart: ("component_name", "states", "initial", "transitions"),
    ChartSet: ("charts",),
    Component: ("name", "provided", "required", "internal_map"),
    CompositionStep: ("left", "right", "satisfied"),
    CompositionResult: ("composed", "steps"),
    ServiceSides: ("emitters", "acceptors"),
    CigNode: ("component", "state", "kinds"),
    CigEdge: ("source", "target", "service"),
    Cig: ("components", "removed", "nodes", "edges"),
    TestStep: ("event", "expected_state", "expected_actions"),
    TestCase: ("id", "owner", "services", "steps", "origin"),
    TestLibrary: ("cases",),
    ComposedLibraryResult: ("retained", "removed", "generated", "final"),
}


def _session(charts: ChartSet, rng: random.Random) -> list:
    """Every model object one README session on ``charts`` makes, as far as
    the charts let it get."""
    found = [charts, *charts]
    for chart in charts:
        found += chart.transitions
        found += [action for t in chart.transitions for action in t.actions]
    try:
        components = [extract_interfaces(chart) for chart in charts]
        found += components
        composition = compose_many(components)
        found += [composition, composition.composed, *composition.steps]
        found += cross_services(charts).values()
        cig = build_cig(charts)
        found += [cig, *cig.nodes, *cig.edges]
        tnew = generate_new_tests(cig, charts)
    except CigError:
        return found
    universe = sorted(composition.all_satisfied()) + ["env0"]
    t1, t2 = (TestLibrary(tuple(random_library(rng, prefix, universe))) for prefix in ("a", "b"))
    result = compose_libraries(t1, t2, composition.all_satisfied(), tnew)
    return found + [tnew, *tnew, *(step for case in tnew for step in case.steps), t1, *t1, result]


@pytest.fixture(scope="module")
def instances(fixture_charts):
    rng = random.Random(20101018)
    found = _session(fixture_charts, rng)
    for _ in range(30):
        found += _session(ChartSet(tuple(random_chart_set(rng, rng.randint(2, 3)))), rng)
    return found


def test_every_model_class_is_sampled(instances):
    assert {type(x) for x in instances} == set(FIELDS)


def test_hash_repr_and_equality_are_a_frozen_dataclass_s(instances):
    twins = {cls: make_dataclass(cls.__name__, fields, frozen=True) for cls, fields in FIELDS.items()}
    # the same fields and checks in another class
    others = {
        cls: type(f"Other{cls.__name__}", (cls,), {"__annotations__": dict.fromkeys(fields)})
        for cls, fields in FIELDS.items()
    }
    for x in instances:
        cls, fields = type(x), FIELDS[type(x)]
        values = tuple(getattr(x, name) for name in fields)
        assert hash(x) == hash(values)
        twin = twins[cls](*values)
        assert (hash(x), repr(x)) == (hash(twin), repr(twin))
        assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"
        for rebuilt in (cls(*values), cls(**dict(zip(fields, values)))):
            assert rebuilt == x and x == rebuilt and hash(rebuilt) == hash(x)
        other = others[cls](*values)
        assert x != twin and twin != x and x != values and x != other and other != x


def test_fields_cannot_be_assigned_or_deleted(instances):
    for x in {type(x): x for x in instances}.values():
        for name in (*FIELDS[type(x)], "unknown"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_pickle_copy_and_deepcopy_give_an_equal_object(instances):
    for x in instances:
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)


def test_a_missing_unknown_or_repeated_argument_is_a_type_error(instances):
    for x in {type(x): x for x in instances}.values():
        cls, fields = type(x), FIELDS[type(x)]
        keywords = {name: getattr(x, name) for name in fields}
        calls = [
            ((), {**keywords, "unknown": None}),
            ((keywords[fields[0]],), keywords),  # the first field twice
            ((*keywords.values(), None), {}),  # more arguments than fields
        ]
        required = [name for name in fields if name not in cls._defaults]
        calls += [((), {n: v for n, v in keywords.items() if n != name}) for name in required]
        for args, kwargs in calls:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_defaults_come_from_the_class():
    step = TestStep("poke")
    assert (step.expected_state, step.expected_actions) == (None, ())
    assert Transition("A", "B") == Transition(source="A", target="B", event=None, guard=None, actions=())


def test_a_string_or_a_plain_value_where_a_model_object_belongs_is_a_type_error():
    # each was taken apart quietly, or accepted until a later use failed
    for make in (
        lambda: TestStep("e", "AB", ("x",)),
        lambda: TestStep("e", ("A", "B"), "xy"),
        lambda: Transition("A", "B", actions=["ping"]),
        lambda: Transition("A", "B", actions="ping"),
        lambda: TestCase("t", "Owner", frozenset({"s"}), steps=["x"]),
    ):
        with pytest.raises(TypeError):
            make()
    step = TestStep("e", ["A", "B"], ["x"])
    assert (step.expected_state, step.expected_actions) == (("A", "B"), ("x",))
    transition = Transition("A", "B", actions=[ActionEmission("ping")])
    assert TestCase("t", "Owner", frozenset({"s"}), [step]).steps == (step,) and len(transition.actions) == 1


def test_a_loaded_composed_result_s_final_part_holds_the_retained_and_generated_cases(fixture_charts):
    satisfied = compose_many([extract_interfaces(chart) for chart in fixture_charts]).all_satisfied()
    tnew = generate_new_tests(build_cig(fixture_charts), fixture_charts)
    step = TestStep("poke")
    t1 = TestLibrary(tuple(TestCase(f"a_{i}", "Owner", frozenset({"env0"}), (step,)) for i in range(3)))
    t2 = TestLibrary((TestCase("b_0", "Owner", satisfied, (step,)),))
    result = compose_libraries(t1, t2, satisfied, tnew)
    assert (len(result.retained), len(result.removed), len(result.generated)) == (3, 1, len(tnew)) and len(tnew)
    loaded = composed_result_from_json(composed_result_to_json(result))
    assert loaded == result
    assert all(a is b for a, b in zip(loaded.final, (*loaded.retained, *loaded.generated), strict=True))


def test_importing_the_cli_loads_no_dataclass_machinery():
    code = (
        "import sys, cigkit.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & sys.modules.keys()))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cigkit.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
