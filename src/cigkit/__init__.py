"""Component interaction graphs and test-suite composition for
statechart-specified components.

A component is a pair of service-name sets: what it provides and what it
requires. Composition matches one side's provided services against the
other's required services and consumes the matches. From the components'
statecharts, the toolkit builds a component interaction graph (CIG) whose
edges connect providing states to requiring states, and uses the graph to
keep test libraries in step with composition: obsolete cases are dropped and
one interaction test is generated per edge.
"""

__version__ = "0.1.0"

# Each exported name by the module that defines it. A name is imported on its
# first use, so that a command loads only the layers it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "cig": (
            "Cig", "CigEdge", "CigNode", "Kind", "ServiceSides", "build_cig", "cig_to_dot",
            "classify_states", "cross_services", "find_switching_states", "format_kinds",
        ),
        "components": (
            "Component", "CompositionResult", "CompositionStep", "ServiceName", "compose",
            "compose_many", "is_composable", "make_component", "satisfied_services",
        ),
        "documents": (
            "cig_from_json", "cig_to_json", "component_from_json", "component_to_json",
            "composed_result_from_json", "composed_result_to_json", "composition_result_from_json",
            "composition_result_to_json", "library_from_json", "library_to_json",
        ),
        "errors": (
            "CigError", "DisjointnessViolation", "DuplicateComponent", "DuplicateState",
            "DuplicateTestId", "InvalidIdentifier", "MissingInitial", "NoInteraction",
            "NotComposable", "ParseError", "SchemaError", "StatechartError", "UnknownState",
            "UnreachableProvider",
        ),
        "statechart": (
            "ActionEmission", "ChartSet", "Statechart", "Transition", "extract_interfaces",
            "parse_statechart", "serialize_statechart",
        ),
        "testlib": (
            "ComposedLibraryResult", "Origin", "TestCase", "TestLibrary", "TestStep",
            "compose_libraries", "generate_new_tests", "satisfied_tests",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # not loaded at start-up without site

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
