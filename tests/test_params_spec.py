"""The parameter spec against the 0.3.0 jsonschema documents it replaced.

On generated valid and nearly valid configs, cli.SPECS (with the protocol's
balanced-bits rules) must accept exactly what 0.3.0 accepted, except where the
narrowing is deliberate: an integral float such as 1e3 in an integer field, an
integer too large for a float (0.3.0 accepted it and then failed at run time),
a count above cli.MAX_TRIALS and a list longer than its maximum.
"""

import copy
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from photonlab import cli

jsonschema = pytest.importorskip("jsonschema")

# frozen copy of photonlab 0.3.0's cli.SCHEMAS and cli.DEFAULTS
_NUMBER = {"type": "number"}
_SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "start_deg": _NUMBER,
        "stop_deg": _NUMBER,
        "step_deg": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["start_deg", "stop_deg", "step_deg"],
}

SCHEMAS_0_3_0 = {
    "malus": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "axes_deg": {"type": "array", "items": _NUMBER, "minItems": 1},
            "mode": {"enum": ["analytic", "mc"]},
            "n_photons": {"type": "integer", "minimum": 1},
            "source": {"enum": ["natural", "linear"]},
            "source_angle_deg": _NUMBER,
            "sweep": {"oneOf": [{"type": "null"}, _SWEEP_SCHEMA]},
        },
    },
    "entropy": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "grid": {
                "type": "array",
                "items": {"type": "number", "minimum": 0, "maximum": 1},
                "minItems": 1,
            },
        },
    },
    "bell": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "sweep": _SWEEP_SCHEMA,
            "n_per_point": {"type": "integer", "minimum": 1},
            "chsh_angles_deg": {
                "type": "array",
                "items": _NUMBER,
                "minItems": 4,
                "maxItems": 4,
            },
            "n_per_setting": {"type": "integer", "minimum": 1},
        },
    },
    "nosignal": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "bases_a_deg": {"type": "array", "items": _NUMBER, "minItems": 1},
            "probe_basis_deg": _NUMBER,
            "n_per_basis": {"type": "integer", "minimum": 1},
        },
    },
    "protocol": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "n_bits": {"type": "integer", "minimum": 1},
            "strategy": {"type": "string"},
            "rule": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"one_deg": _NUMBER, "zero_deg": _NUMBER},
            },
            "bit_source": {"enum": ["iid", "balanced"]},
        },
        "if": {"properties": {"bit_source": {"const": "balanced"}}},
        "then": {"properties": {"n_bits": {"multipleOf": 2}}},
    },
    "mzi": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "phases_deg": {"type": "array", "items": _NUMBER, "minItems": 1},
            "n_per_phase": {"type": "integer", "minimum": 1},
            "mode": {"enum": ["analytic", "mc"]},
            "timing": {
                "oneOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "phase_deg": _NUMBER,
                            "p_present": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                            "n": {"type": "integer", "minimum": 1},
                        },
                        "required": ["phase_deg", "p_present", "n"],
                    },
                ]
            },
        },
    },
}

DEFAULTS_0_3_0 = {
    "malus": {
        "axes_deg": [90.0, 45.0, 0.0],
        "mode": "analytic",
        "n_photons": 1_000_000,
        "source": "natural",
        "source_angle_deg": 0.0,
        "sweep": None,
    },
    "entropy": {"grid": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "bell": {
        "sweep": {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
        "n_per_point": 50_000,
        "chsh_angles_deg": [0.0, 45.0, 22.5, 67.5],
        "n_per_setting": 100_000,
    },
    "nosignal": {"bases_a_deg": [0.0, 45.0], "probe_basis_deg": 0.0, "n_per_basis": 100_000},
    "protocol": {
        "n_bits": 10_000,
        "strategy": "fixed-basis-ml:0",
        "rule": {"one_deg": 0.0, "zero_deg": 45.0},
        "bit_source": "iid",
    },
    "mzi": {
        "phases_deg": [22.5 * k for k in range(16)],
        "n_per_phase": 100_000,
        "mode": "mc",
        "timing": {"phase_deg": 60.0, "p_present": 0.5, "n": 200_000},
    },
}

VALIDATORS = {
    name: jsonschema.validators.validator_for(schema)(schema)
    for name, schema in SCHEMAS_0_3_0.items()
}


class _Refused(Exception):
    """A number that the 0.3.0 JSON hooks refused."""


def _parse_0_3_0(text):
    """json.loads with the finite-number hooks of 0.3.0: (value, True), or (None, False)."""
    def refuse(token):
        raise _Refused(token)

    def finite_float(token):
        value = float(token)
        if not math.isfinite(value):
            refuse(token)
        return value

    try:
        return json.loads(text, parse_constant=refuse, parse_float=finite_float), True
    except _Refused:
        return None, False


# list lengths capped since 0.5.0; 0.3.0 took any length
LIST_MAXIMA = {"bases_a_deg": 1_000}  # every other list: cli.MAX_SWEEP_POINTS


# strategies that parse_strategy accepts; the schema took any string and left
# the label to parse_strategy, which is not under test here
STRATEGIES = ["basis-oracle", "fixed-basis-ml:22.5", "repetition:3:basis-oracle"]
NOT_STRINGS = [None, True, False, [], {}]
JUNK = st.sampled_from(NOT_STRINGS + ["x"])


def _edges(schema):
    """Numbers at and around each bound of a number or integer node, and extremes."""
    bounds = [schema[k] for k in ("minimum", "exclusiveMinimum", "maximum") if k in schema]
    if schema.get("type") == "integer":  # every integer is a count, capped since 0.5.0
        bounds.append(cli.MAX_TRIALS)
    edges = [b + d for b in bounds for d in (-1, -0.5, 0, 0.0, 5e-324, 0.5, 1)]
    return edges + [-0.0, 10**400, -(10**400), 2**53 + 1, 1e20, math.inf, -math.inf, math.nan]


def _number_paths(schema, path=()):
    """(path, node) of every number and integer in a schema; a list's item sits at index 0."""
    if "oneOf" in schema:
        schema = schema["oneOf"][1]
    kind = schema.get("type")
    if kind == "object":
        for key, sub in schema["properties"].items():
            yield from _number_paths(sub, path + (key,))
    elif kind == "array":
        yield from _number_paths(schema["items"], path + (0,))
    elif kind in ("number", "integer"):
        yield path, schema


def _mostly(valid, near):
    """valid three times in four, otherwise near."""
    return st.integers(0, 3).flatmap(lambda k: near if k == 0 else valid)


def _values(schema):
    """Values for one 0.3.0 schema node: mostly valid, the rest near a bound or junk."""
    if "oneOf" in schema:
        return st.one_of(*[_values(option) for option in schema["oneOf"]])
    if "enum" in schema:
        return _mostly(st.sampled_from(schema["enum"]), JUNK)
    kind = schema.get("type")
    if kind == "null":
        return st.none()
    if kind == "string":
        return _mostly(st.sampled_from(STRATEGIES), st.sampled_from(NOT_STRINGS))
    if kind in ("number", "integer"):
        exclusive = "exclusiveMinimum" in schema
        low = schema.get("minimum", schema.get("exclusiveMinimum"))
        high = schema.get("maximum")
        int_low = None if low is None else math.floor(low) + 1 if exclusive else math.ceil(low)
        valid = st.integers(int_low, high)
        if kind == "integer":  # counts around the count cap, odd and even
            valid |= st.sampled_from([cli.MAX_TRIALS + d for d in (-1, 0, 1, 2)])
        else:
            valid |= st.floats(low, high, exclude_min=exclusive,
                               allow_nan=False, allow_infinity=False)
        edge = st.sampled_from(_edges(schema))
        near = edge | edge | edge | st.integers(-3, 1000).map(float) | st.floats() | JUNK
        return _mostly(valid, near)
    if kind == "array":
        low = schema.get("minItems", 0)
        high = schema.get("maxItems", low + 3)
        items = _values(schema["items"])
        valid = st.lists(items, min_size=low, max_size=high)
        return _mostly(valid, st.lists(items, max_size=high + 1) | JUNK)
    assert kind == "object", schema
    members = {key: _values(sub) for key, sub in schema["properties"].items()}
    bogus = st.fixed_dictionaries({"bogus": st.integers()}, optional=members)
    valid = st.fixed_dictionaries(members) | st.fixed_dictionaries({}, optional=members)
    return _mostly(valid, bogus | JUNK)


def _narrowed(schema, value, name=None):
    """True where 0.5.0 refuses, on purpose, a value 0.3.0's schema accepted."""
    if "oneOf" in schema:
        return isinstance(value, dict) and _narrowed(schema["oneOf"][1], value)
    kind = schema.get("type")
    if kind == "object" and isinstance(value, dict):
        members = schema["properties"]
        return any(_narrowed(members[k], v, k) for k, v in value.items() if k in members)
    if kind == "array" and isinstance(value, list):
        if len(value) > LIST_MAXIMA.get(name, cli.MAX_SWEEP_POINTS):
            return True
        return any(_narrowed(schema["items"], v) for v in value)
    if kind == "integer" and isinstance(value, float):
        return True  # 0.3.0 took an integral float such as 1e3 as an integer
    if kind in ("number", "integer") and isinstance(value, int) and not isinstance(value, bool):
        if kind == "integer" and value > cli.MAX_TRIALS:
            return True
        return abs(value) > sys.float_info.max
    return False


class _Ran(Exception):
    """Raised in place of run_protocol: the protocol runner passed its checks."""


def _accepted_by_spec(experiment, params):
    try:
        cli.check_params(cli.SPECS[experiment], params)
        if experiment == "protocol":
            with mock.patch.object(cli, "run_protocol", side_effect=_Ran):
                cli._run_protocol(params, 0, 1)
    except cli.ConfigError:
        return False
    except _Ran:
        pass
    return True


@pytest.mark.parametrize("experiment", list(SCHEMAS_0_3_0))
def test_defaults_match_0_3_0(experiment):
    assert json.dumps(cli.defaults(cli.SPECS[experiment])) == json.dumps(
        DEFAULTS_0_3_0[experiment])


def _assert_agreement(experiment, config_params):
    """Both versions accept the config, both refuse it, or 0.5.0 narrowed on purpose."""
    text = json.dumps(config_params)

    parsed, parsed_ok = _parse_0_3_0(text)
    old_params = cli._deep_merge(DEFAULTS_0_3_0[experiment], parsed)
    old = parsed_ok and VALIDATORS[experiment].is_valid(old_params)

    params = cli._deep_merge(cli.defaults(cli.SPECS[experiment]), json.loads(text))
    new = _accepted_by_spec(experiment, params)

    if old != new:
        assert old and not new, text
        assert _narrowed(SCHEMAS_0_3_0[experiment], params), text


@pytest.mark.parametrize("experiment", list(SCHEMAS_0_3_0))
def test_spec_agrees_with_the_0_3_0_schema_at_every_bound(experiment):
    base = copy.deepcopy(DEFAULTS_0_3_0[experiment])
    if experiment == "malus":  # its sweep is null by default
        base["sweep"] = {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0}
    for path, schema in _number_paths(SCHEMAS_0_3_0[experiment]):
        for value in _edges(schema):
            config_params = copy.deepcopy(base)
            node = config_params
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            _assert_agreement(experiment, config_params)


@pytest.mark.parametrize("experiment", list(SCHEMAS_0_3_0))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_spec_accepts_what_the_0_3_0_schema_accepted(experiment, data):
    _assert_agreement(experiment, data.draw(_values(SCHEMAS_0_3_0[experiment])))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_spec_agrees_with_the_0_3_0_schema_around_the_bases_cap(offset):
    params = copy.deepcopy(DEFAULTS_0_3_0["nosignal"])
    params["bases_a_deg"] = [0.0] * (LIST_MAXIMA["bases_a_deg"] + offset)
    _assert_agreement("nosignal", params)
