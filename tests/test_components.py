import random

import pytest

from cigkit import (
    Component,
    CompositionResult,
    DisjointnessViolation,
    InvalidIdentifier,
    NotComposable,
    SchemaError,
    ServiceName,
    component_from_json,
    component_to_json,
    compose,
    compose_many,
    composition_result_from_json,
    composition_result_to_json,
    is_composable,
    make_component,
    satisfied_services,
)
from oracles import all_interfaces, oracle_compose, random_interface


def test_service_name_accepts_identifiers():
    assert ServiceName("setCredit") == "setCredit"
    assert ServiceName("_x9") == "_x9"


@pytest.mark.parametrize("bad", ["", "9lives", "a-b", "a b", "a.b"])
def test_service_name_rejects_non_identifiers(bad):
    with pytest.raises(InvalidIdentifier):
        ServiceName(bad)


def test_make_component_simple():
    c = make_component("A", {"p1"}, {"r1"})
    assert c.provided == {"p1"}
    assert c.required == {"r1"}
    assert c.internal_map == ()


def test_make_component_vending_machine():
    c = make_component(
        "VendingMachine",
        {"insert", "cancel", "vend", "nok", "ok"},
        {"setCredit", "dispense", "returnCoins"},
    )
    assert c.provided == {"insert", "cancel", "vend", "nok", "ok"}
    assert c.required == {"setCredit", "dispense", "returnCoins"}


def test_overlapping_interfaces_rejected():
    with pytest.raises(DisjointnessViolation):
        make_component("X", {"a"}, {"a"})


def test_internal_map_checked_and_sorted():
    c = Component(
        name="A",
        provided={"p", "q"},
        required={"r", "s"},
        internal_map={"s": "p", "r": "q"},
    )
    assert c.internal_map == (("r", "q"), ("s", "p"))
    assert c.internal_mapping() == {"r": "q", "s": "p"}
    with pytest.raises(ValueError):
        Component(name="A", provided={"p"}, required={"r"}, internal_map={"x": "p"})
    with pytest.raises(ValueError):
        Component(name="A", provided={"p"}, required={"r"}, internal_map={"r": "x"})


def test_is_composable():
    a = make_component("A", {"a"}, set())
    b = make_component("B", set(), {"a"})
    assert is_composable(a, b)
    assert is_composable(b, a)
    assert not is_composable(make_component("A", {"a"}, {"b"}), make_component("B", {"c"}, {"d"}))


def test_satisfied_services_golden():
    vm = make_component(
        "VendingMachine",
        {"insert", "cancel", "vend", "nok", "ok"},
        {"setCredit", "dispense", "returnCoins"},
    )
    disp = make_component("Dispenser", {"setCredit", "dispense"}, {"nok", "ok"})
    assert satisfied_services(vm, disp) == {"setCredit", "dispense", "nok", "ok"}
    a = make_component("A", {"a"}, set())
    b = make_component("B", set(), {"a"})
    assert satisfied_services(a, b) == {"a"}
    assert satisfied_services(
        make_component("A", {"a"}, {"b"}), make_component("B", {"c"}, {"d"})
    ) == set()


def test_compose_full_consumption():
    result = compose(make_component("A", {"a"}, set()), make_component("B", set(), {"a"}))
    assert result.composed.provided == set()
    assert result.composed.required == set()
    assert result.satisfied == {"a"}
    assert result.composed.name == "A_x_B"
    assert result.composed.internal_map == ()


def test_compose_vending_golden():
    vm = make_component(
        "VendingMachine",
        {"insert", "cancel", "vend", "nok", "ok"},
        {"setCredit", "dispense", "returnCoins"},
    )
    disp = make_component("Dispenser", {"setCredit", "dispense"}, {"nok", "ok"})
    result = compose(vm, disp)
    assert result.composed.provided == {"insert", "cancel", "vend"}
    assert result.composed.required == {"returnCoins"}
    assert result.satisfied == {"setCredit", "dispense", "nok", "ok"}


def test_compose_not_composable():
    with pytest.raises(NotComposable, match="not composable: S is empty"):
        compose(make_component("A", {"a"}, {"b"}), make_component("B", {"c"}, {"d"}))


def test_compose_drops_internal_map():
    a = Component(name="A", provided={"p"}, required={"r"}, internal_map={"r": "p"})
    b = make_component("B", {"r"}, {"p"})
    assert compose(a, b).composed.internal_map == ()


def test_compose_many_chain():
    a = make_component("A", {"a"}, set())
    b = make_component("B", {"b"}, {"a"})
    c = make_component("C", set(), {"b"})
    result = compose_many([a, b, c])
    assert result.composed.provided == set()
    assert result.composed.required == set()
    assert [(s.left, s.right) for s in result.steps] == [("A", "B"), ("A_x_B", "C")]
    assert result.all_satisfied() == {"a", "b"}


def test_composition_result_describes_its_last_step():
    a = make_component("A", {"a"}, set())
    b = make_component("B", {"b"}, {"a"})
    result = compose_many([a, b, make_component("C", set(), {"b"})])
    assert (result.left_name, result.right_name, result.satisfied) == ("A_x_B", "C", {"b"})
    with pytest.raises(ValueError, match="at least one step"):
        CompositionResult(composed=result.composed, steps=())


def test_compose_many_two_equals_compose():
    a = make_component("A", {"a"}, {"b"})
    b = make_component("B", {"b"}, {"a"})
    direct = compose(a, b)
    folded = compose_many([a, b])
    assert folded.composed == direct.composed
    assert folded.satisfied == direct.satisfied
    assert folded.steps == direct.steps


def test_compose_many_reports_failing_pair():
    a = make_component("A", {"a"}, {"b"})
    b = make_component("B", {"c"}, {"d"})
    with pytest.raises(NotComposable, match="for A and B"):
        compose_many([a, b, make_component("C", set(), {"a"})])
    with pytest.raises(ValueError):
        compose_many([a])


def test_associativity_counterexample_exists():
    # the fold order genuinely matters, which is why compose_many records it
    a = make_component("A", {"a"}, {"b"})
    b = make_component("B", {"b"}, {"a"})
    c = make_component("C", {"a"}, {"c"})
    left_first = compose(a, b).composed  # consumes both a and b
    with pytest.raises(NotComposable):
        compose(left_first, c)
    right_first = compose(b, c).composed
    result = compose(a, right_first).composed
    assert result.provided == {"a"}
    assert result.required == {"c"}


def test_commutativity_exhaustive_small_universe():
    universe = ["s0", "s1", "s2", "s3"]
    splits = all_interfaces(universe)
    assert len(splits) == 81
    for p1, r1 in splits:
        c1 = Component(name="L", provided=p1, required=r1)
        for p2, r2 in splits:
            c2 = Component(name="R", provided=p2, required=r2)
            s = satisfied_services(c1, c2)
            assert s == satisfied_services(c2, c1)
            if not s:
                continue
            lr = compose(c1, c2).composed
            rl = compose(c2, c1).composed
            assert lr.provided == rl.provided
            assert lr.required == rl.required


def test_oracle_equivalence_random():
    rng = random.Random(20240817)
    universe = [f"svc{i}" for i in range(9)]
    for i in range(300):
        p1, r1 = random_interface(rng, universe)
        p2, r2 = random_interface(rng, universe)
        c1 = Component(name="L", provided=p1, required=r1)
        c2 = Component(name="R", provided=p2, required=r2)
        expected = oracle_compose(p1, r1, p2, r2)
        if expected is None:
            assert not is_composable(c1, c2)
            continue
        result = compose(c1, c2)
        assert result.composed.provided == expected[0]
        assert result.composed.required == expected[1]
        assert result.satisfied == expected[2]
        assert result.composed.provided.isdisjoint(result.composed.required)


def test_component_json_round_trip():
    c = Component(name="A", provided={"p", "q"}, required={"r"}, internal_map={"r": "p"})
    text = component_to_json(c)
    assert text.endswith("\n")
    assert component_from_json(text) == c
    plain = make_component("B", {"x"}, set())
    assert '"internal_map"' not in component_to_json(plain)
    assert component_from_json(component_to_json(plain)) == plain


def test_component_json_is_sorted_and_stable():
    c = make_component("A", {"zeta", "alpha", "mid"}, {"beta"})
    text = component_to_json(c)
    assert text == component_to_json(c)
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')


def test_component_json_schema_errors():
    with pytest.raises(SchemaError):
        component_from_json("not json")
    with pytest.raises(SchemaError):
        component_from_json('{"name": "A", "provided": []}')
    with pytest.raises(SchemaError):
        component_from_json('{"name": "A", "provided": "x", "required": []}')
    with pytest.raises(DisjointnessViolation):
        component_from_json('{"name": "A", "provided": ["a"], "required": ["a"]}')


def test_composition_result_json_round_trip():
    a = make_component("A", {"a", "b"}, set())
    b = make_component("B", {"c"}, {"a"})
    c = make_component("C", set(), {"b", "c"})
    result = compose_many([a, b, c])
    text = composition_result_to_json(result)
    back = composition_result_from_json(text)
    assert back == result
    with pytest.raises(SchemaError):
        composition_result_from_json('{"left": "A", "right": "B"}')
