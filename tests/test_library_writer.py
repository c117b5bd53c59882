"""The test-library writer against ``json.dumps(indent=2)`` on the same data.

The reference is ``tests/oracles.py``: dict trees written by the running
interpreter's own ``json`` module. This module does not import pytest, so the
same check also runs on an interpreter that lacks it:

    PYTHONPATH=src:tests python tests/test_library_writer.py
"""

import random
import string

from cigkit import (
    ComposedLibraryResult,
    Origin,
    TestCase,
    TestLibrary,
    TestStep,
    compose_libraries,
    composed_result_from_json,
    composed_result_to_json,
    library_from_json,
    library_to_json,
)
from oracles import oracle_composed_json, oracle_library_json

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


if __name__ == "__main__":
    test_library_writer_matches_json_dumps()
    test_composed_result_writer_matches_json_dumps()
    print("library writer matches json.dumps(indent=2)")
