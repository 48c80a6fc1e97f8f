"""``validate_scenario``'s schema walker against jsonschema as a reference.

The reference is the validator condsim used before the walker: jsonschema's
draft 2020-12 class for ``SCENARIO_SCHEMA`` with an ``integer`` type that
takes no float and no bool, and ``best_match`` to pick one error. For every
input the walker must name the same place with the same message.
"""

import copy
import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsim.errors import ScenarioValidationError
from condsim.harness import SCENARIO_SCHEMA, _schema_errors, validate_scenario

from conftest import SCENARIO_DIR

jsonschema = pytest.importorskip("jsonschema")


def _reference_validator():
    cls = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    integer = cls.TYPE_CHECKER.redefine("integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return jsonschema.validators.extend(cls, type_checker=integer)(SCENARIO_SCHEMA)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


REFERENCE = _reference_validator()
SCENARIOS = {os.path.basename(p): _load(p) for p in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))}
# every section and optional key of the schema, so that mutations reach all
# of it; it passes the schema, though not the checks that follow it
SCENARIOS["every-key"] = {
    "name": "every key",
    "duration": 0.02,
    "step_size": 0.01,
    "seed": 4,
    "gravity": [0.0, 0.0, -9.81],
    "bodies": [
        {"type": "particle", "mass": 1.0, "position": [0.0, 0.0, 1.0], "velocity": [0.0, 0.0, 0.0], "radius": 0.1},
        {"type": "rigid", "mass": 2.0, "orientation": [1.0, 0.0, 0.0, 0.0], "angular_velocity": [0.0, 0.0, 1.0],
         "inertia": [0.1, 0.2, 0.3], "contact_points": [[0.1, 0.0, 0.0]], "contact_radius": 0.0},
    ],
    "lattice": {"nx": 2, "ny": 2, "nz": 1, "spacing": 0.1, "mass": 0.5, "stiffness": 100.0, "origin": [0.0, 0.0, 0.5],
                "node_radius": 0.05, "diagonals": True, "position_jitter": 0.0},
    "springs": [{"i": 0, "j": 1, "stiffness": 10.0, "rest": 0.5}],
    "geometry": {"planes": [{"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}],
                 "spheres": [{"center": [1.0, 0.0, 0.0], "radius": 0.5}], "margin": 0.01},
    "contact": {"mu": 0.3, "mu2": 0.2, "beta_err": 0.2, "e_rest": 0.5, "restitution_threshold": 0.01, "kv": 1e5},
    "damping": {"variant": "constant", "value": 0.1},
    "forces": [{"force": [1.0, 0.0, 0.0], "start": 0.0, "end": 1.0, "body": 0, "bodies": [0, 1],
                "lattice": "top", "per_node": False}],
}

DROP = object()


def reference_message(data):
    exc = jsonschema.exceptions.best_match(REFERENCE.iter_errors(data))
    if exc is None:
        return None
    return f"scenario invalid at {'/'.join(map(str, exc.absolute_path)) or '<root>'}: {exc.message}"


def assert_same_verdict(data):
    expected = reference_message(data)
    if expected is None:
        errors = []
        _schema_errors(data, SCENARIO_SCHEMA, (), errors)
        assert errors == []
        return
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(data)
    assert str(exc.value) == expected


def edited(name, *edits):
    """A copy of scenario ``name`` with each ``(path, value)`` edit made:
    ``DROP`` deletes the key, and the empty path replaces the root."""
    data = copy.deepcopy(SCENARIOS[name])
    for path, value in edits:
        if not path:
            data = value
            continue
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return data


CASES = {
    "type-number": edited("box_slide.json", (("contact", "mu"), "0.2")),
    "type-object": edited("box_slide.json", (("contact",), [0.2])),
    "type-string": edited("box_slide.json", (("name",), 3)),
    "type-boolean": edited("every-key", (("lattice", "diagonals"), 1)),
    "bool-for-number": edited("box_slide.json", (("bodies", 0, "mass"), True)),
    "bool-for-integer": edited("box_slide.json", (("seed",), False)),
    "float-for-integer": edited("box_slide.json", (("seed",), 3.0)),
    "float-below-integer-minimum": edited("box_slide.json", (("seed",), -1.0)),
    "tuple-for-array": edited("box_slide.json", (("bodies", 0, "position"), (0.0, 0.0, 0.1))),
    "list-root": edited("box_slide.json", ((), [])),
    "none-root": edited("box_slide.json", ((), None)),
    "enum": edited("box_slide.json", (("bodies", 0, "type"), "cube")),
    "enum-number": edited("lattice_drag.json", (("damping", "variant"), 1.0)),
    "required": edited("box_slide.json", (("step_size",), DROP)),
    "required-two": edited("every-key", (("springs", 0, "i"), DROP), (("springs", 0, "stiffness"), DROP)),
    "additional-one": edited("box_slide.json", (("stepsize",), 0.01)),
    "additional-two": edited("box_slide.json", (("zeta",), 1), (("alpha",), 2)),
    "additional-int-key": edited("box_slide.json", (("contact", 7), 1), (("contact", "Mu"), 2)),
    "additional-before-required": edited("box_slide.json", (("bodies", 0, "mass"), DROP), (("bodies", 0, "colour"), "red")),
    "minItems": edited("box_slide.json", (("bodies", 0, "position"), [0.0])),
    "minItems-empty": edited("every-key", (("bodies", 1, "orientation"), [])),
    "maxItems": edited("box_slide.json", (("bodies", 0, "inertia"), [0.1, 0.1, 0.1, 0.1])),
    "minimum": edited("box_slide.json", (("seed",), -1)),
    "minimum-numpy": edited("every-key", (("geometry", "margin"), np.float64(-0.5))),
    "exclusiveMinimum": edited("box_slide.json", (("step_size",), 0.0)),
    "exclusiveMinimum-numpy": edited("box_slide.json", (("bodies", 0, "mass"), np.float32(-1.0))),
    "maximum": edited("every-key", (("contact", "e_rest"), 1.5)),
    "numpy-integer": edited("box_slide.json", (("forces", 0, "body"), np.int64(0))),
    "numpy-number-passes": edited("box_slide.json", (("contact", "mu"), np.float64(0.3))),
    "nan-beside-schema-error": edited("box_slide.json", (("contact", "mu"), math.nan), (("contact", "kv"), -1.0)),
    "siblings": edited("box_slide.json", (("bodies", 0, "inertia", 0), 0.0), (("bodies", 0, "inertia", 2), -1.0)),
    "sibling-keys": edited("every-key", (("contact", "mu"), -1.0), (("contact", "kv"), 0.0)),
    "depths": edited("box_slide.json", (("bodies", 0, "inertia", 0), 0.0), (("duration",), -1.0)),
    "deep-and-required": edited("every-key", (("springs", 0, "j"), -1), (("lattice", "nx"), DROP)),
}


@pytest.mark.parametrize("data", CASES.values(), ids=CASES.keys())
def test_named_case(data):
    assert_same_verdict(data)


def test_cases_break_every_keyword_that_reports():
    """The cases make every keyword of the schema the reported one, except
    ``properties`` and ``items``, which only descend."""
    used, stack = set(), [SCENARIO_SCHEMA]
    while stack:
        schema = stack.pop()
        used |= set(schema)
        stack += list(schema.get("properties", {}).values()) + [schema[k] for k in ("items",) if k in schema]
    reported = {jsonschema.exceptions.best_match(REFERENCE.iter_errors(data)).validator
                for data in CASES.values() if not REFERENCE.is_valid(data)}
    assert reported == used - {"properties", "items"}


def paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from paths(value, (*path, key))


ODD_VALUES = st.one_of(
    st.sampled_from([True, False, None, "x", "rigid", 3.0, -1, 0, 2, 2.0, -0.0, 1.5, [], {}, [1.0, 2.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0], (0.0, 0.0, 1.0), {"nx": 1}, np.float64(-2.5), np.float32(0.5),
                     np.int64(3), math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
)


@st.composite
def mutated_scenarios(draw):
    data = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else data
        if isinstance(node, dict):
            op = draw(st.sampled_from(["replace", "drop", "extra"]))
        elif isinstance(node, list):
            op = draw(st.sampled_from(["replace", "tuple", "grow", "shrink"]))
        else:
            op = "replace"
        if op == "drop" and node:
            del node[draw(st.sampled_from(sorted(node, key=str)))]
        elif op == "extra":
            for key in draw(st.lists(st.sampled_from(["zeta", "alpha", "Mass", 7]), min_size=1, max_size=2)):
                node[key] = 1.0
        elif op == "grow":
            node.append(copy.deepcopy(node[-1]) if node else 0.0)
        elif op == "shrink" and node:
            node.pop()
        else:
            # a copy, as a later edit may change it in place
            value = tuple(node) if op == "tuple" else copy.deepcopy(draw(ODD_VALUES))
            if not path:
                data = value
                break
            parent[path[-1]] = value
    return data


@settings(max_examples=400, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenarios(data):
    assert_same_verdict(data)
