"""Every document writer against ``json.dumps(indent=2)`` on the same data.

The reference is ``tests/oracles.py``: dict trees written by the running
interpreter's own ``json`` module. Names in CIG, component and composition
documents are identifiers; library case ids also need escaping. This module
does not import pytest, so the same check also runs on an interpreter that
lacks it:

    PYTHONPATH=src:tests python tests/test_library_writer.py
"""

import random
import string

from cigkit import (
    ChartSet,
    Cig,
    CigError,
    Component,
    ComposedLibraryResult,
    CompositionResult,
    CompositionStep,
    NotComposable,
    Origin,
    TestCase,
    TestLibrary,
    TestStep,
    build_cig,
    cig_from_json,
    cig_to_json,
    component_from_json,
    component_to_json,
    compose_libraries,
    compose_many,
    composed_result_from_json,
    composed_result_to_json,
    composition_result_from_json,
    composition_result_to_json,
    library_from_json,
    library_to_json,
)
from oracles import (
    oracle_cig_json,
    oracle_component_json,
    oracle_composed_json,
    oracle_composition_json,
    oracle_library_json,
    random_chart_set,
)

# Characters that need escaping or surrogate pairs in ASCII-only JSON.
_ODD = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f/\xe9\xfc\u4e2d\u2028\u2029\ufeff\U0001F600\U0001D11E\ud800'
_ID_CHARS = string.ascii_letters + string.digits + "_ -." + _ODD
_NAMES = ("a", "b", "go", "ok", "Ack_2", "_x", "S0", "Z")


def _name(rng):
    return rng.choice(_NAMES)


def _case_id(rng, index):
    text = "".join(rng.choice(_ID_CHARS) for _ in range(rng.randint(0, 6)))
    return f"{text}#{index}"


def _step(rng):
    state = (_name(rng), _name(rng)) if rng.random() < 0.5 else None
    actions = tuple(_name(rng) for _ in range(rng.choice((0, 0, 1, 3))))
    return TestStep(event=_name(rng), expected_state=state, expected_actions=actions)


def _case(rng, case_id, origin=Origin.LIBRARY):
    low = 1 if origin is Origin.GENERATED else 0
    return TestCase(
        id=case_id,
        owner=_name(rng),
        services=frozenset(_name(rng) for _ in range(rng.randint(low, 3))),
        steps=tuple(_step(rng) for _ in range(rng.choice((0, 1, 1, 2, 4)))),
        origin=origin,
    )


def _library(rng, prefix, origin=Origin.LIBRARY):
    return TestLibrary(
        tuple(
            _case(rng, prefix + _case_id(rng, i), origin)
            for i in range(rng.choice((0, 0, 1, 2, 5)))
        )
    )


def _result(rng):
    t1, t2 = _library(rng, "1:"), _library(rng, "2:")
    tnew = _library(rng, "tnew_", Origin.GENERATED)
    satisfied = frozenset(n for n in _NAMES if rng.random() < 0.3)
    return compose_libraries(t1, t2, satisfied, tnew)


def _with_restepped_final(result):
    """The result with its final cases rebuilt: same ids, other steps."""
    final = TestLibrary(
        tuple(
            TestCase(case.id, case.owner, case.services, (TestStep(event="other"),), case.origin)
            for case in result.final
        )
    )
    return ComposedLibraryResult(result.retained, result.removed, result.generated, final)


def test_library_writer_matches_json_dumps():
    rng = random.Random(51100)
    empty = 0
    for _ in range(1200):
        library = _library(rng, rng.choice(("", "x")), rng.choice(tuple(Origin)))
        text = library_to_json(library)
        assert text == oracle_library_json(library), library
        assert library_from_json(text) == library
        empty += not library.cases
    assert empty > 100
    assert library_to_json(TestLibrary()) == '{\n  "cases": []\n}\n'


def test_composed_result_writer_matches_json_dumps():
    rng = random.Random(51101)
    restepped = 0
    for _ in range(1200):
        result = _result(rng)
        text = composed_result_to_json(result)
        assert text == oracle_composed_json(result), result
        loaded = composed_result_from_json(text)
        assert composed_result_to_json(loaded) == text
        if result.retained.cases:
            # a final case that reuses a retained id with other steps,
            # built directly and loaded from a document
            other = _with_restepped_final(result)
            other_text = composed_result_to_json(other)
            assert other_text == oracle_composed_json(other), other
            assert other_text != text
            loaded = composed_result_from_json(other_text)
            assert loaded.final.cases[0].steps != loaded.retained.cases[0].steps
            assert composed_result_to_json(loaded) == other_text
            restepped += 1
    assert restepped > 300


def _component(rng):
    names = list(_NAMES)
    rng.shuffle(names)
    cut, end = sorted(rng.sample(range(len(names) + 1), 2))
    provided, required = names[:cut], names[cut:end]
    internal_map = {}
    if provided and required and rng.random() < 0.5:
        internal_map = {r: rng.choice(provided) for r in required if rng.random() < 0.7}
    return Component(_name(rng), frozenset(provided), frozenset(required), tuple(internal_map.items()))


def _composition(rng):
    """A fold of random components (None when some pair does not compose), or
    a result built directly: its composed side may carry an ``internal_map``
    and its steps may have empty satisfied sets."""
    if rng.random() < 0.6:
        try:
            return compose_many([_component(rng) for _ in range(rng.randint(2, 5))])
        except NotComposable:
            return None
    steps = tuple(
        CompositionStep(_name(rng), _name(rng), frozenset(rng.sample(_NAMES, rng.randint(0, 3))))
        for _ in range(rng.randint(1, 4))
    )
    return CompositionResult(_component(rng), steps)


def test_cig_writer_matches_json_dumps():
    rng = random.Random(51102)
    built = with_removed = both_kinds = 0
    for i in range(800):
        try:
            cig = build_cig(ChartSet(tuple(random_chart_set(rng, 2 + i % 3))))
        except CigError:
            continue
        text = cig_to_json(cig)
        assert text == oracle_cig_json(cig), cig
        assert cig_from_json(text) == cig
        built += 1
        with_removed += bool(cig.removed)
        both_kinds += sum(len(node.kinds) > 1 for node in cig.nodes)
    assert built >= 600 and 50 <= with_removed <= built - 50 and both_kinds > 100
    empty = Cig((), (), (), ())
    assert cig_to_json(empty) == oracle_cig_json(empty)


def test_component_writer_matches_json_dumps():
    rng = random.Random(51103)
    mapped = 0
    for _ in range(1200):
        component = _component(rng)
        text = component_to_json(component)
        assert text == oracle_component_json(component), component
        assert component_from_json(text) == component
        mapped += bool(component.internal_map)
    assert 100 < mapped < 1100
    bare = Component("A")
    assert component_to_json(bare) == oracle_component_json(bare)


def test_composition_writer_matches_json_dumps():
    rng = random.Random(51104)
    written = folds = 0
    for _ in range(1500):
        result = _composition(rng)
        if result is None:
            continue
        text = composition_result_to_json(result)
        assert text == oracle_composition_json(result), result
        assert composition_result_from_json(text) == result
        written += 1
        folds += len(result.steps) > 1 and "_x_" in result.composed.name  # a compose_many fold
    assert written >= 600 and folds >= 200


if __name__ == "__main__":
    test_library_writer_matches_json_dumps()
    test_composed_result_writer_matches_json_dumps()
    test_cig_writer_matches_json_dumps()
    test_component_writer_matches_json_dumps()
    test_composition_writer_matches_json_dumps()
    print("every document writer matches json.dumps(indent=2)")
