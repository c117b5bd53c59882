"""Components as provided/required interface sets, and their composition.

A component is described purely by the service names it offers to its peers
(``provided``) and the service names it consumes from peers or from the
environment (``required``). Two components are composable when one side
provides at least one service the other requires; the matched names form the
satisfied set and are removed from the composite's interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


def _service_set(values: Iterable[str]) -> frozenset[ServiceName]:
    return frozenset(ServiceName(v) for v in values)


@dataclass(frozen=True)
class Component:
    """A named pair of disjoint service-name sets.

    ``internal_map`` optionally records which provided service backs each
    required one inside the component. It is carried as inert data, stored as
    a sorted tuple of (required, provided) pairs, and dropped on composition.
    """

    name: str
    provided: frozenset[ServiceName] = frozenset()
    required: frozenset[ServiceName] = frozenset()
    internal_map: tuple[tuple[ServiceName, ServiceName], ...] = ()

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
        items = raw.items() if isinstance(raw, Mapping) else raw
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


@dataclass(frozen=True)
class CompositionStep:
    """One pairwise composition: the operand names and the services it consumed."""

    left: str
    right: str
    satisfied: frozenset[ServiceName]

    def __post_init__(self):
        check_identifier(self.left, "component name")
        check_identifier(self.right, "component name")
        object.__setattr__(self, "satisfied", _service_set(self.satisfied))


@dataclass(frozen=True)
class CompositionResult:
    """Outcome of composing components.

    ``steps`` records the whole fold in order, one entry per pair; there is at
    least one. ``satisfied``, ``left_name`` and ``right_name`` describe the
    final pairwise step.
    """

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
