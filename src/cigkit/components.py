"""Components as provided/required interface sets, and their composition.

A component is described purely by the service names it offers to its peers
(``provided``) and the service names it consumes from peers or from the
environment (``required``). Two components are composable when one side
provides at least one service the other requires; the matched names form the
satisfied set and are removed from the composite's interface.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import DisjointnessViolation, InvalidIdentifier, NotComposable

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_identifier(value: str, what: str = "identifier") -> str:
    """Validate a name: letters, digits and underscore, no leading digit."""
    if not isinstance(value, str) or not _IDENTIFIER_RE.match(value):
        raise InvalidIdentifier(f"invalid {what}: {value!r}")
    return value


class ServiceName(str):
    """A service interface name. A plain string validated as an identifier."""

    __slots__ = ()

    def __new__(cls, value: str) -> "ServiceName":
        if type(value) is cls:
            return value
        check_identifier(value, "service name")
        return super().__new__(cls, value)


_setattr = object.__setattr__


class _Frozen:
    """A frozen value object with a frozen dataclass's semantics. Its fields are
    its class's own annotations, each held in a slot its class declares, given
    by position or keyword; ``_defaults`` maps a field to its default. Then
    ``__post_init__`` checks them and may normalise them through
    ``object.__setattr__``. A class that caches a property lists ``__dict__``
    among its slots."""

    __slots__ = ()
    _defaults = {}  # a field's default by its name

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = dict.fromkeys(cls.__annotations__)  # the names in order, and their set as keys()
        cls._row = attrgetter("__class__", *cls._fields)  # a tuple, also for one field

    def __init__(self, *args, **kwargs):
        if args:
            count = len(args) + len(kwargs)
            kwargs.update(zip(self._fields, args))
            if len(kwargs) != count:  # one field given twice, or more arguments than fields
                raise TypeError(f"{type(self).__name__}() takes each of its {len(self._fields)} fields once")
        if kwargs.keys() != self._fields.keys():
            kwargs = {**self._defaults, **kwargs}
            if kwargs.keys() != self._fields.keys():
                raise TypeError(f"{type(self).__name__}() needs the fields {list(self._fields)}, got {list(kwargs)}")
        for name in self._fields:
            _setattr(self, name, kwargs[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._row(self) == other._row(other)

    def __hash__(self):
        return hash(self._row(self)[1:])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._row(self)[1:]))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy build the object anew, as slots give them no __dict__ to fill
        row = self._row(self)
        return row[0], row[1:]


def _in_order(values: Iterable) -> Iterable:
    """``values`` in the order their members are checked: a set's sorted by
    ``repr``, which also orders members of mixed types, as a set's own order
    follows the hash seed; any other iterable's as it comes."""
    return sorted(values, key=repr) if isinstance(values, (set, frozenset)) else values


def _service_set(values: Iterable[str]) -> frozenset[ServiceName]:
    """The values as a frozenset of ServiceName, kept as they are if they already are one."""
    if type(values) is frozenset and all(type(v) is ServiceName for v in values):
        return values
    return frozenset(ServiceName(v) for v in _in_order(values))


class Component(_Frozen):
    """A named pair of disjoint service-name sets.

    ``internal_map`` optionally records which provided service backs each
    required one inside the component. It is carried as inert data, stored as
    a sorted tuple of (required, provided) pairs, and dropped on composition.
    """

    __slots__ = ("name", "provided", "required", "internal_map")
    _defaults = {"provided": frozenset(), "required": frozenset(), "internal_map": ()}

    name: str
    provided: frozenset[ServiceName]
    required: frozenset[ServiceName]
    internal_map: tuple[tuple[ServiceName, ServiceName], ...]

    def __post_init__(self):
        check_identifier(self.name, "component name")
        object.__setattr__(self, "provided", _service_set(self.provided))
        object.__setattr__(self, "required", _service_set(self.required))
        overlap = self.provided & self.required
        if overlap:
            raise DisjointnessViolation(
                f"component {self.name!r} both provides and requires: "
                + ", ".join(sorted(overlap))
            )
        raw = self.internal_map
        items = raw.items() if isinstance(raw, Mapping) else _in_order(raw)
        pairs = tuple(sorted((ServiceName(k), ServiceName(v)) for k, v in items))
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError(f"component {self.name!r}: duplicate internal_map key")
        for key, value in pairs:
            if key not in self.required:
                raise ValueError(f"component {self.name!r}: internal_map key {key!r} is not required")
            if value not in self.provided:
                raise ValueError(f"component {self.name!r}: internal_map value {value!r} is not provided")
        object.__setattr__(self, "internal_map", pairs)

    def internal_mapping(self) -> dict[ServiceName, ServiceName]:
        return dict(self.internal_map)


def make_component(
    name: str,
    provided: Iterable[str],
    required: Iterable[str],
) -> Component:
    """Build a component with the given interface sets and no internal map."""
    return Component(name=name, provided=frozenset(provided), required=frozenset(required))


def satisfied_services(c1: Component, c2: Component) -> frozenset[ServiceName]:
    """Services one component provides and the other requires (either direction)."""
    return (c1.provided & c2.required) | (c2.provided & c1.required)


def is_composable(c1: Component, c2: Component) -> bool:
    return bool(satisfied_services(c1, c2))


class CompositionStep(_Frozen):
    """One pairwise composition: the operand names and the services it consumed."""

    __slots__ = ("left", "right", "satisfied")

    left: str
    right: str
    satisfied: frozenset[ServiceName]

    def __post_init__(self):
        check_identifier(self.left, "component name")
        check_identifier(self.right, "component name")
        object.__setattr__(self, "satisfied", _service_set(self.satisfied))


class CompositionResult(_Frozen):
    """Outcome of composing components.

    ``steps`` records the whole fold in order, one entry per pair; there is at
    least one. ``satisfied``, ``left_name`` and ``right_name`` describe the
    final pairwise step.
    """

    __slots__ = ("composed", "steps")

    composed: Component
    steps: tuple[CompositionStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a composition result needs at least one step")

    @property
    def satisfied(self) -> frozenset[ServiceName]:
        return self.steps[-1].satisfied

    @property
    def left_name(self) -> str:
        return self.steps[-1].left

    @property
    def right_name(self) -> str:
        return self.steps[-1].right

    def all_satisfied(self) -> frozenset[ServiceName]:
        """Union of the satisfied sets over every fold step."""
        out: frozenset[ServiceName] = frozenset()
        for step in self.steps:
            out |= step.satisfied
        return out


def compose(c1: Component, c2: Component) -> CompositionResult:
    """Compose two components, consuming the satisfied services.

    The composite provides the union of both provided sets minus the satisfied
    set, and likewise for the required sets. Raises NotComposable when no
    service matches.
    """
    satisfied = satisfied_services(c1, c2)
    if not satisfied:
        raise NotComposable(c1.name, c2.name)
    composed = Component(
        name=f"{c1.name}_x_{c2.name}",
        provided=(c1.provided | c2.provided) - satisfied,
        required=(c1.required | c2.required) - satisfied,
    )
    step = CompositionStep(left=c1.name, right=c2.name, satisfied=satisfied)
    return CompositionResult(composed=composed, steps=(step,))


def compose_many(components: Sequence[Component]) -> CompositionResult:
    """Left-fold ``compose`` over the list in the given order.

    The fold order is recorded step by step; no order-independence is assumed.
    Raises NotComposable at the first pair with no satisfied services, naming
    that pair.
    """
    components = list(components)
    if len(components) < 2:
        raise ValueError("compose_many needs at least two components")
    steps: list[CompositionStep] = []
    accumulated = components[0]
    for nxt in components[1:]:
        result = compose(accumulated, nxt)
        steps.extend(result.steps)
        accumulated = result.composed
    return CompositionResult(composed=accumulated, steps=tuple(steps))
