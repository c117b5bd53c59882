"""Readers and writers of the JSON documents: component, composition result,
CIG, test library and composed library result.

Each writer gives the bytes ``json.dumps(document, indent=2)`` gives, plus a
newline, without building a dict tree. Each reader decodes with ``json.loads``,
reports malformed input as a ``SchemaError`` and shares equal values, by value,
in one memo per load. A test library is read a chunk and a case at a time, not
held whole as text or tree; a library that reader does not take is read again
whole, so its errors are the ones a whole-file read reports.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from typing import TextIO

from .cig import _KIND_ORDER, Cig, CigEdge, CigNode, StateRef
from .components import Component, CompositionResult, CompositionStep, ServiceName, _service_set
from .errors import CigError, InvalidIdentifier, SchemaError
from .testlib import ComposedLibraryResult, Origin, TestCase, TestLibrary, TestStep

# Every string goes through the escaper json.dumps itself uses.
_quote = json.encoder.encode_basestring_ascii

_RESULT_KEYS = ("retained", "removed", "generated", "final")


def _loads(text: str) -> object:
    """Parse JSON text, reporting malformed input as a SchemaError: besides
    syntax errors, ``json.loads`` raises ``RecursionError`` on deeply nested
    arrays or objects and ``ValueError`` on an integer literal longer than the
    interpreter's digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _array(texts: list[str], pad: str) -> str:
    """JSON texts as an array opened on a line indented by ``pad``."""
    if not texts:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(texts) + "\n" + pad + "]"


def _object(fields: dict[str, str], pad: str) -> str:
    """Keys and JSON texts as a nonempty object opened on a line indented by ``pad``."""
    inner = "\n" + pad + "  "
    pairs = [f"{_quote(key)}: {text}" for key, text in fields.items()]
    return "{" + inner + ("," + inner).join(pairs) + "\n" + pad + "}"


def _component_text(component: Component, pad: str) -> str:
    inner = pad + "  "
    fields = {
        "name": _quote(component.name),
        "provided": _array([_quote(s) for s in sorted(component.provided)], inner),
        "required": _array([_quote(s) for s in sorted(component.required)], inner),
    }
    if component.internal_map:
        fields["internal_map"] = _object({k: _quote(v) for k, v in component.internal_map}, inner)
    return _object(fields, pad)


def component_to_json(component: Component) -> str:
    """Stable JSON rendering: fixed key order, sorted arrays, trailing newline."""
    return _component_text(component, "") + "\n"


def component_from_dict(data: object) -> Component:
    if not isinstance(data, dict):
        raise SchemaError("component must be a JSON object")
    try:
        name = data["name"]
        provided = data["provided"]
        required = data["required"]
    except KeyError as exc:
        raise SchemaError(f"component object is missing key {exc.args[0]!r}") from None
    if not isinstance(provided, list) or not isinstance(required, list):
        raise SchemaError("component 'provided' and 'required' must be arrays")
    internal_map = data.get("internal_map", {})
    if not isinstance(internal_map, dict):
        raise SchemaError("component 'internal_map' must be an object")
    try:
        return Component(
            name=name,
            provided=frozenset(provided),
            required=frozenset(required),
            internal_map=tuple(internal_map.items()),
        )
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid component object: {exc}") from None


def component_from_json(text: str) -> Component:
    return component_from_dict(_loads(text))


def composition_result_to_json(result: CompositionResult) -> str:
    steps = []
    for step in result.steps:
        satisfied = _array([_quote(s) for s in sorted(step.satisfied)], "      ")
        fields = {"left": _quote(step.left), "right": _quote(step.right), "satisfied": satisfied}
        steps.append(_object(fields, "    "))
    document = {
        "left": _quote(result.left_name),
        "right": _quote(result.right_name),
        "satisfied": _array([_quote(s) for s in sorted(result.satisfied)], "  "),
        "composed": _component_text(result.composed, "  "),
        "steps": _array(steps, "  "),
    }
    return _object(document, "") + "\n"


def composition_result_from_json(text: str) -> CompositionResult:
    data = _loads(text)
    if not isinstance(data, dict):
        raise SchemaError("composition result must be a JSON object")
    for key in ("left", "right", "satisfied", "composed", "steps"):
        if key not in data:
            raise SchemaError(f"composition result is missing key {key!r}")
    if not isinstance(data["satisfied"], list) or not isinstance(data["steps"], list):
        raise SchemaError("composition 'satisfied' and 'steps' must be arrays")
    steps = []
    for raw in data["steps"]:
        if not isinstance(raw, dict) or not {"left", "right", "satisfied"} <= raw.keys():
            raise SchemaError("composition step must have 'left', 'right' and 'satisfied'")
        if not isinstance(raw["satisfied"], list):
            raise SchemaError("composition step 'satisfied' must be an array")
        try:
            steps.append(CompositionStep(left=raw["left"], right=raw["right"], satisfied=raw["satisfied"]))
        except (InvalidIdentifier, TypeError) as exc:
            raise SchemaError(f"invalid composition step: {exc}") from None
    try:
        result = CompositionResult(composed=component_from_dict(data["composed"]), steps=tuple(steps))
        satisfied = _service_set(data["satisfied"])
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid composition result: {exc}") from None
    if (data["left"], data["right"], satisfied) != (result.left_name, result.right_name, result.satisfied):
        raise SchemaError("composition result 'left', 'right' and 'satisfied' must match its last step")
    return result


def _ref_text(ref: StateRef, pad: str) -> str:
    return _object({"component": _quote(ref[0]), "state": _quote(ref[1])}, pad)


def cig_to_json(cig: Cig) -> str:
    nodes = []
    for node in cig.nodes:
        kinds = _array([_quote(k.value) for k in _KIND_ORDER if k in node.kinds], "      ")
        fields = {"component": _quote(node.component), "state": _quote(node.state), "kinds": kinds}
        nodes.append(_object(fields, "    "))
    edges = []
    for edge in cig.edges:
        source, target = _ref_text(edge.source, "      "), _ref_text(edge.target, "      ")
        edges.append(_object({"from": source, "to": target, "service": _quote(edge.service)}, "    "))
    document = {
        "components": _array([_quote(component) for component in cig.components], "  "),
        "removed": _array([_ref_text(ref, "    ") for ref in cig.removed], "  "),
        "nodes": _array(nodes, "  "),
        "edges": _array(edges, "  "),
    }
    return _object(document, "") + "\n"


def _one(memo: dict, kind: type, value: object) -> object:
    """The load's one ``kind(value)`` for each distinct string ``value``; any
    other value is passed on for the model to report."""
    if type(value) is not str:
        return value
    key = (kind, value)  # a service name and an equal owner stay apart
    if key not in memo:
        memo[key] = kind(value)
    return memo[key]


def _ref_from_dict(data: object, what: str, memo: dict) -> StateRef:
    """The load's one tuple for each (component, state) pair of strings, a key
    no ``_one`` key equals; any other pair is passed on for the model to report."""
    if not isinstance(data, dict) or not {"component", "state"} <= data.keys():
        raise SchemaError(f"{what} must be an object with 'component' and 'state'")
    ref = (data["component"], data["state"])
    return memo.setdefault(ref, ref) if type(ref[0]) is type(ref[1]) is str else ref


_CODE_TO_KIND = {k.value: k for k in _KIND_ORDER}


def cig_from_json(text: str) -> Cig:
    data = _loads(text)
    if not isinstance(data, dict):
        raise SchemaError("CIG document must be a JSON object")
    for key in ("components", "removed", "nodes", "edges"):
        if key not in data:
            raise SchemaError(f"CIG document is missing key {key!r}")
        if not isinstance(data[key], list):
            raise SchemaError(f"CIG {key!r} must be an array")
    memo: dict = {}  # keyed by (component, state) refs, kind sets, and (ServiceName or str, name)
    try:
        nodes = []
        for raw in data["nodes"]:
            if not isinstance(raw, dict) or not {"component", "state", "kinds"} <= raw.keys():
                raise SchemaError("CIG node must have 'component', 'state' and 'kinds'")
            kinds = raw["kinds"]
            if not isinstance(kinds, list) or not all(k in _CODE_TO_KIND for k in kinds):
                raise SchemaError(f"invalid kind codes in node {raw.get('state')!r}")
            kinds = frozenset(_CODE_TO_KIND[k] for k in kinds)
            kinds = memo.setdefault(kinds, kinds)
            nodes.append(CigNode(component=_one(memo, str, raw["component"]), state=_one(memo, str, raw["state"]), kinds=kinds))
        edges = []
        for raw in data["edges"]:
            if not isinstance(raw, dict) or not {"from", "to", "service"} <= raw.keys():
                raise SchemaError("CIG edge must have 'from', 'to' and 'service'")
            edges.append(
                CigEdge(
                    source=_ref_from_dict(raw["from"], "edge 'from'", memo),
                    target=_ref_from_dict(raw["to"], "edge 'to'", memo),
                    service=_one(memo, ServiceName, raw["service"]),
                )
            )
        return Cig(
            components=tuple(data["components"]),
            removed=tuple(_ref_from_dict(r, "removed entry", memo) for r in data["removed"]),
            nodes=tuple(nodes),
            edges=tuple(edges),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid CIG document: {exc}") from None


def _case_text(case: TestCase, pad: str, texts: dict[int, str]) -> str:
    """The case object opened on a line indented by ``pad``; ``texts`` maps ``id(step)`` to its text."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    steps = []
    for step in case.steps:
        if id(step) not in texts:
            state = ""
            if step.expected_state is not None:
                component, name = map(_quote, step.expected_state)
                state = (
                    f'"expected_state": {{\n{p3}  "component": {component},\n'
                    f'{p3}  "state": {name}\n{p3}}},\n{p3}'
                )
            texts[id(step)] = (
                f'{{\n{p3}"event": {_quote(step.event)},\n{p3}{state}"expected_actions": '
                f"{_array([_quote(a) for a in step.expected_actions], p3)}\n{p2}}}"
            )
        steps.append(texts[id(step)])
    return (
        f'{{\n{p1}"id": {_quote(case.id)},\n{p1}"owner": {_quote(case.owner)},\n'
        f'{p1}"origin": {_quote(case.origin.value)},\n'
        f'{p1}"services": {_array([_quote(s) for s in sorted(case.services)], p1)},\n'
        f'{p1}"steps": {_array(steps, p1)}\n{pad}}}'
    )


def library_chunks(document: TestLibrary | ComposedLibraryResult) -> Iterator[str]:
    """A test library or composed library result document, one case or less
    per chunk. Steps held twice are written once, keyed by ``id()``; a case is
    written afresh each time a part holds it, so no case text outlives its chunk."""
    nested = isinstance(document, ComposedLibraryResult)
    pad = "  " if nested else ""
    parts = [(key, getattr(document, key)) for key in _RESULT_KEYS] if nested else [(None, document)]
    texts: dict[int, str] = {}
    for i, (key, library) in enumerate(parts):
        if key is not None:
            yield f'{"," if i else "{"}\n  "{key}": '
        yield f'{{\n{pad}  "cases": ['
        for j, case in enumerate(library.cases):
            yield f'{"," if j else ""}\n{pad}    {_case_text(case, pad + "    ", texts)}'
        yield (f"\n{pad}  ]" if library.cases else "]") + f"\n{pad}}}"
    yield "\n}\n" if pad else "\n"


def _step_from_dict(data: object, memo: dict) -> TestStep:
    if not isinstance(data, dict) or "event" not in data:
        raise SchemaError("test step must be an object with an 'event'")
    expected_state = None
    if "expected_state" in data:
        ref = data["expected_state"]
        if not isinstance(ref, dict) or not {"component", "state"} <= ref.keys():
            raise SchemaError("'expected_state' must have 'component' and 'state'")
        expected_state = (ref["component"], ref["state"])
    actions = data.get("expected_actions", [])
    if not isinstance(actions, list):
        raise SchemaError("'expected_actions' must be an array")
    # one object per equal step, keyed by its raw values: only strings pass
    # TestStep's checks, and no other decoded value equals a string
    key = (TestStep, data["event"], expected_state, *actions)
    try:
        return memo[key]
    except (KeyError, TypeError):  # new, or unhashable and so no step
        pass
    if expected_state:  # a new step holds the load's one string per name
        expected_state = tuple(_one(memo, str, name) for name in expected_state)
    try:
        step = memo[key] = TestStep(event=data["event"], expected_state=expected_state, expected_actions=tuple(actions))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid test step: {exc}") from None
    return step


def _services(raw: list, memo: dict) -> frozenset:
    """The load's one set of ServiceNames for each set of valid names; any other
    set is passed on for the case to report after the checks it makes first."""
    services = frozenset(raw)
    if services not in memo:
        try:
            memo[services] = frozenset(_one(memo, ServiceName, name) for name in services)
        except InvalidIdentifier:
            return services
    return memo[services]


def _case_from_dict(data: object, memo: dict) -> TestCase:
    if not isinstance(data, dict):
        raise SchemaError("test case must be a JSON object")
    for key in ("id", "owner", "services", "steps"):
        if key not in data:
            raise SchemaError(f"test case is missing key {key!r}")
    origin_code = data.get("origin", Origin.LIBRARY.value)
    try:
        origin = Origin(origin_code)
    except ValueError:
        raise SchemaError(f"unknown origin {origin_code!r}") from None
    if not isinstance(data["services"], list) or not isinstance(data["steps"], list):
        raise SchemaError("test case 'services' and 'steps' must be arrays")
    try:
        return TestCase(
            id=data["id"],
            owner=_one(memo, str, data["owner"]),
            services=_services(data["services"], memo),
            steps=tuple(_step_from_dict(s, memo) for s in data["steps"]),
            origin=origin,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid test case: {exc}") from None


def _library_from_dict(data: object, memo: dict) -> TestLibrary:
    if not isinstance(data, dict) or "cases" not in data:
        raise SchemaError("test library must be an object with a 'cases' array")
    if not isinstance(data["cases"], list):
        raise SchemaError("'cases' must be an array")
    return TestLibrary(tuple(_case_from_dict(c, memo) for c in data["cases"]))


def library_to_json(document: TestLibrary | ComposedLibraryResult) -> str:
    return "".join(library_chunks(document))


composed_result_to_json = library_to_json


_CHUNK = 1 << 14  # characters per read of a library file
_WS = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once  # the scanner json.loads uses, from any index


def _char(s: str, i: int) -> tuple[str, int]:
    return s[i : i + 1], i + 1  # "" past the end


def _stream_library(read: Callable[[int], str]) -> TestLibrary:
    """The library in the text of which ``read(n)`` gives the next ``n``
    characters (fewer only at its end), decoded and built one case at a time.
    Raises ``ValueError`` on any text it does not take."""
    text, at, ended = "", 0, False

    def take(parse):
        """``parse(text, i)`` at the first ``i`` past whitespace, once a
        character follows the value or the text has ended."""
        nonlocal text, at, ended
        while True:
            try:
                value, end = parse(text, _WS(text, at).end())
                if end < len(text) or ended:
                    at = end
                    return value
            except (ValueError, StopIteration):  # a value the held text may cut off
                if ended:
                    raise ValueError("invalid JSON") from None
            more = read(max(_CHUNK, len(text) - at))  # a value longer than the text held doubles it
            if more:
                text, at = text[at:] + more, 0
            else:
                ended = True

    def items(close: str):
        """Once per member of the object or array just opened, which ``close`` ends."""
        char = take(_char) if take(lambda s, i: (s[i : i + 1], i)) == close else ","
        while char == ",":
            yield
            char = take(_char)
        if char != close:
            raise ValueError(f"expected {close!r}")

    cases, memo = None, {}
    if take(_char) != "{":
        raise ValueError("expected '{'")
    for _ in items("}"):
        key = take(_scan)
        if type(key) is not str or take(_char) != ":":
            raise ValueError("expected a key")
        if key != "cases":
            take(_scan)
        elif cases is None and take(_char) == "[":
            cases = [_case_from_dict(take(_scan), memo) for _ in items("]")]
        else:  # not an array, or a second one, which json.loads lets replace the first
            raise ValueError("expected one 'cases' array")
    if cases is None or take(_char):
        raise ValueError("expected one 'cases' array and nothing after the library")
    return TestLibrary(tuple(cases))


def _library_from_chunks(read: Callable[[int], str], whole: Callable[[], str]) -> TestLibrary:
    try:
        return _stream_library(read)
    except (CigError, ValueError, RecursionError):
        pass  # outside the handler, so that the partial load is freed first
    return _library_from_dict(_loads(whole()), {})


def library_from_stream(stream: TextIO) -> TestLibrary:
    """The library in a text file, read ``_CHUNK`` characters and one case at a
    time. On anything that reader does not take (a JSON, UTF-8, schema or
    duplicate-id error, a second 'cases' key, data after the document) the
    file is read again whole and decoded as one JSON text, so the result, or
    the error with its message, line, column and whole-file byte offset, is a
    whole-file read's."""
    if not stream.seekable():  # a pipe cannot be read again
        return library_from_json(stream.read())

    def whole() -> str:
        stream.seek(0)
        return stream.read()

    return _library_from_chunks(stream.read, whole)


def library_from_json(text: str) -> TestLibrary:
    chunks = iter((text,))
    return _library_from_chunks(lambda n: next(chunks, ""), lambda: text)


def composed_result_from_json(text: str) -> ComposedLibraryResult:
    data = _loads(text)
    if not isinstance(data, dict):
        raise SchemaError("composed library result must be a JSON object")
    memo: dict = {}  # one for the four parts, so that equal steps, names and service sets are one object
    parts = {}
    for key in _RESULT_KEYS:
        if key not in data:
            raise SchemaError(f"composed library result is missing key {key!r}")
        parts[key] = _library_from_dict(data[key], memo)
    # final repeats retained then generated: a final case equal to one of theirs becomes that object
    earlier = {case.id: case for case in (*parts["retained"], *parts["generated"])}
    parts["final"] = TestLibrary(tuple(earlier[c.id] if earlier.get(c.id) == c else c for c in parts["final"]))
    try:
        return ComposedLibraryResult(**parts)
    except ValueError as exc:
        raise SchemaError(f"invalid composed library result: {exc}") from None
