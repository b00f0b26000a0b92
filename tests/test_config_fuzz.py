"""Config fuzzers for `solve` and `verify-estimates`: every schema-valid
config runs or is refused.

Configs are drawn from SOLVE_SCHEMA and ESTIMATES_SCHEMA themselves (their
types, bounds, enums and required keys), with the grid, the time grid, the
iteration counts and the sample count capped, and the sweeps named, so that
each run stays small.  Whatever the config, `main` must return one of the
documented exit codes, explain a non-zero exit on stderr, and raise nothing.
A solve that exits 0 must have written finite norms.

The CLI's own schema walk is checked against jsonschema as the oracle, on
documents drawn from all three schemas with one value, key or list item
broken.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from nlsa_lab.cli import (
    ESTIMATES_SCHEMA,
    OSCILLATORY_SCHEMA,
    SOLVE_SCHEMA,
    _schema_error,
    main,
)

# upper bounds the schema leaves open, keyed by the field's path
_CAPS = {
    ("grid", "num_points"): 64,
    ("time", "nodes"): 8,
    ("picard", "max_iterations"): 8,
    ("samples",): 2,
}

# preset and soliton names the program knows, plus arbitrary text
_NAMES = st.sampled_from(["mkdv", "nls", "dnls", "nlsa-default", " MKDV "]) | st.text(max_size=8)


def _object(props, required=(), optional=None):
    optional = [key for key in props if key not in required] if optional is None else optional
    return st.fixed_dictionaries(
        {key: props[key] for key in required}, optional={key: props[key] for key in optional}
    )


def from_schema(schema, path=()):
    """A hypothesis strategy for the JSON values `schema` accepts."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = {key: from_schema(sub, path + (key,)) for key, sub in schema["properties"].items()}
        anything = _object(props, schema.get("required", ()))
        if path == ("equation",):
            # the schema allows any mix of keys, but only a lone preset or a
            # coefficient set gets past the equation check to the solver
            return (
                _object(props, ["preset"], [])
                | _object(props, ["a", "b"], ["c", "d", "e"])
                | anything
            )
        return anything
    if kind == "integer":
        step = schema.get("multipleOf", 1)
        lo = schema.get("minimum")
        hi = _CAPS.get(path)
        ints = st.integers(
            None if lo is None else -(-lo // step), None if hi is None else hi // step
        ).map(lambda k: k * step)
        # JSON Schema counts an integral float such as 8.0 as an integer
        return ints | ints.map(float)
    if kind == "number":
        lo = schema.get("minimum", schema.get("exclusiveMinimum"))
        hi = schema.get("maximum", schema.get("exclusiveMaximum"))
        return st.floats(
            lo, hi,
            exclude_min="exclusiveMinimum" in schema,
            exclude_max="exclusiveMaximum" in schema,
            allow_nan=False, allow_infinity=False,
        )
    if kind == "array":
        return st.lists(from_schema(schema["items"], path + ("[]",)),
                        min_size=schema.get("minItems", 0), max_size=schema.get("maxItems", 3))
    if kind == "boolean":
        return st.booleans()
    if kind == "string":
        return _NAMES
    raise AssertionError(f"no strategy for schema type {kind!r} at {path}")


def _run(command, config, tmp_path_factory):
    """(exit code, stderr, output directory) of one in-process run of config."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    # stderr is captured by hand: capsys is function-scoped, and hypothesis
    # runs the body many times within one test function
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp / "out")])
    return code, err.getvalue(), tmp / "out"


def _solve_config(grid=None, initial_data=None, equation=None):
    return {
        "equation": equation or {"preset": "mkdv"},
        "grid": grid or {"num_points": 8, "length": 10.0},
        "time": {"horizon": 0.01, "nodes": 2},
        "initial_data": initial_data or {"kind": "zero"},
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, derandomize=True, deadline=None)
@given(config=from_schema(SOLVE_SCHEMA))
# a grid spacing that underflows to 0, a grid whose dispersion a*xi^2+b*xi^3
# overflows on its frequencies, a soliton amplitude whose square overflows a
# Python float, and linear runs whose norms overflow float64
@example(config=_solve_config(grid={"num_points": 2, "length": 5e-324}))
@example(config=_solve_config(grid={"num_points": 2, "length": 1e-300}))
@example(config=_solve_config(initial_data={"kind": "soliton", "name": "mkdv", "amplitude": 1e200}))
@example(config=_solve_config(equation={"a": 1, "b": 1},
                              initial_data={"kind": "gaussian", "amplitude": 1e150}))
@example(config=_solve_config(equation={"a": 1, "b": 1},
                              initial_data={"kind": "gaussian", "amplitude": 1e120}))
# integer fields spelled as integral floats, which used to reach numpy and range()
@example(config=_solve_config(grid={"num_points": 8.0, "length": 10.0}))
@example(config={**_solve_config(), "time": {"horizon": 0.01, "nodes": 2.0}})
@example(config={**_solve_config(), "picard": {"max_iterations": 3.0}})
# Gaussian data on a grid near float64's range, whose square and norms overflow
@example(config={"grid": {"num_points": 22, "length": 7.23e307},
                 "equation": {"a": -1.79e308, "b": -8.6e241},
                 "time": {"horizon": 120, "nodes": 8},
                 "initial_data": {"kind": "gaussian"}})
# a Gaussian whose FFT overflows on a two-point grid, where the H^s norm's
# phase factor turned the inf spectrum into NaN and raised under this filter
@example(config={"equation": {"a": 0.0, "b": 0.0},
                 "grid": {"num_points": 2, "length": 1.698309537570162e+16},
                 "time": {"horizon": 1.0, "nodes": 2},
                 "initial_data": {"kind": "gaussian", "amplitude": 2.1170382608041474e+292}})
# a horizon at float64's largest value, whose last time node linspace
# computed as 3 * (horizon / 3), overflowing before it set the node to horizon
@example(config={"equation": {"preset": "mkdv"},
                 "grid": {"num_points": 2, "length": 1.0},
                 "time": {"horizon": 1.7976931348623157e+308, "nodes": 3},
                 "initial_data": {"kind": "zero"}})
def test_every_schema_valid_solve_config_runs_or_is_refused(tmp_path_factory, config):
    code, err, out = _run("solve", config, tmp_path_factory)
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert err.strip(), f"exit {code} without a message for {config}"
    else:
        # a successful run certifies finite norms (json writes a non-finite
        # one as null); a history's max/min ratio is inf when it touches zero
        norms = json.loads((out / "norms.json").read_text())
        values = [v for key, v in norms.items() if not key.endswith("_ratio")]
        flat = [x for v in values for x in (v if isinstance(v, list) else [v])]
        assert None not in flat, f"exit 0 with non-finite norms for {config}"


# the sweeps named and the sample count given, so that no run falls back to
# all six sweeps or to their default sample counts
_SMALL_ESTIMATES_SCHEMA = {**ESTIMATES_SCHEMA, "required": ["estimates", "samples"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, derandomize=True, deadline=None)
@given(config=from_schema(_SMALL_ESTIMATES_SCHEMA))
# a negative seed, which numpy's packet generator refuses; the run blamed it
# on config.equation
@example(config={"seed": -1, "estimates": ["commutator"], "samples": 2})
def test_every_schema_valid_estimates_config_runs_or_is_refused(tmp_path_factory, config):
    code, err, _ = _run("verify-estimates", config, tmp_path_factory)
    assert code in (0, 1, 3)
    if code != 0:
        assert err.strip(), f"exit {code} without a message for {config}"
    # a refusal blames a field the config gives, never one left to its default
    for key in re.findall(r"(?<!\S)config\.([a-z_]+)", err):
        assert key in config, f"{err!r} blames config.{key}, absent from {config}"


# ---------------------------------------------------------------------------
# integer fields spelled as integral floats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, config, field", [
    ("solve", _solve_config(), ("grid", "num_points")),
    ("solve", _solve_config(), ("time", "nodes")),
    ("solve", {**_solve_config(), "picard": {"max_iterations": 3}}, ("picard", "max_iterations")),
    ("verify-estimates", {"estimates": ["commutator"], "samples": 2}, ("samples",)),
])
def test_integral_float_runs_as_its_integer(tmp_path, capsys, command, config, field):
    def run(value, name):
        spelled = copy.deepcopy(config)
        parent = spelled
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spelled))
        return main([command, "--config", str(path), "--out", str(tmp_path / name)])

    integer = config
    for key in field:
        integer = integer[key]
    assert run(integer, "int") == 0
    assert run(float(integer), "float") == 0
    # every artifact but the manifest, whose duration varies run to run
    artifacts = sorted(p.name for p in (tmp_path / "int").iterdir() if p.name != "manifest.json")
    assert artifacts == sorted(
        p.name for p in (tmp_path / "float").iterdir() if p.name != "manifest.json")
    for name in artifacts:
        assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()
    capsys.readouterr()
    assert run(integer + 0.5, "half") == 1
    err = capsys.readouterr().err
    assert "config." + ".".join(field) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the schema walk against jsonschema
# ---------------------------------------------------------------------------

_SCHEMAS = {"solve": SOLVE_SCHEMA, "verify-oscillatory": OSCILLATORY_SCHEMA,
            "verify-estimates": ESTIMATES_SCHEMA}
_BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
# the keywords `_schema_error` walks; a schema that uses any other would be
# checked only in part
_KEYWORDS = {"type", "properties", "additionalProperties", "required", "enum", *_BOUNDS,
             "multipleOf", "items", "minItems", "maxItems"}
# a value of each JSON type, to stand in for a field of another type
_JUNK = [None, True, False, 0, -1, 3, 2.5, -0.0, "", "x", [], [1.0], {}, {"kind": "zero"}]
_ANY = st.sampled_from(_JUNK).map(copy.deepcopy)


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("name", _SCHEMAS)
def test_every_schema_keyword_is_one_the_walk_supports(name):
    for sub in _subschemas(_SCHEMAS[name]):
        assert set(sub) <= _KEYWORDS, sub
        assert "type" in sub or set(sub) == {"enum"}, sub
        if sub.get("type") == "object":
            assert sub["additionalProperties"] is False and "properties" in sub, sub
        else:
            assert "additionalProperties" not in sub, sub
        assert ("items" in sub) == (sub.get("type") == "array"), sub


def _nodes(value, schema, container, key):
    """(container, key, schema) for `value` and for each value inside it that
    the schema describes."""
    yield container, key, schema
    if isinstance(value, dict) and "properties" in schema:
        for k, item in value.items():
            if k in schema["properties"]:
                yield from _nodes(item, schema["properties"][k], value, k)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], value, i)


def _edges(schema):
    """Values at, just inside and just outside each bound (as ints and floats),
    the enum's members and two strings outside it, or lists one item short of
    the fewest and one beyond the most items."""
    if "enum" in schema:
        return [*schema["enum"], "", "x"]
    if "items" in schema:
        item = _full(schema["items"])
        return [[item] * (schema.get("minItems", 1) - 1), [item] * (schema.get("maxItems", 0) + 1)]
    return [bound + offset for keyword, bound in schema.items() if keyword in _BOUNDS
            for offset in (0, -1, 1, 0.0, -0.5, 0.5, -1.0, 1.0)]


def _full(schema):
    """A conforming document with every optional key and the fewest list items."""
    if "enum" in schema:
        return schema["enum"][0]
    kind = schema["type"]
    if kind == "object":
        return {key: _full(sub) for key, sub in schema["properties"].items()}
    if kind == "array":
        return [_full(schema["items"]) for _ in range(max(schema.get("minItems", 0), 1))]
    if kind in ("number", "integer"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum"))
        hi = schema.get("maximum", schema.get("exclusiveMaximum"))
        if lo is not None and hi is not None:
            return (lo + hi) / 2
        # two above the lower bound is a multiple of 2 for the one multipleOf
        return lo + 2 if lo is not None else 1
    return {"string": "x", "boolean": True}[kind]


def _check_against_jsonschema(holder, schema):
    """The walk and jsonschema agree on accept or reject, and the walk's path is
    one of jsonschema's shallowest."""
    document = holder["config"]
    expected = list(Draft202012Validator(schema).iter_errors(copy.deepcopy(document)))
    error = _schema_error(document, schema)
    if not expected:
        assert error is None
        # and every integer field now holds an int
        for container, key, sub in _nodes(document, schema, holder, "config"):
            if sub.get("type") == "integer":
                assert type(container[key]) is int
    else:
        depth = min(len(e.absolute_path) for e in expected)
        shallowest = {tuple(e.absolute_path) for e in expected if len(e.absolute_path) == depth}
        assert error is not None and error[0] in shallowest, (error, shallowest)


@pytest.mark.parametrize("name", _SCHEMAS)
def test_schema_walk_agrees_with_jsonschema_on_every_edge(name):
    # each value in turn at each place of a full document: every type, and each
    # keyword's edge values
    schema = _SCHEMAS[name]
    holder = {"config": _full(schema)}
    assert _schema_error(copy.deepcopy(holder["config"]), schema) is None
    for container, key, sub in list(_nodes(holder["config"], schema, holder, "config")):
        original = container[key]
        for value in [*_JUNK, *_edges(sub)]:
            container[key] = copy.deepcopy(value)
            _check_against_jsonschema(holder, schema)
        container[key] = original


def test_schema_walk_reports_the_first_shallowest_error_in_schema_order():
    config = _solve_config(grid={"num_points": 7.5, "length": -1.0})
    config["time"]["nodes"] = 0
    config["initial_data"] = {"kind": "nothing", "amplitude": 0}
    assert _schema_error(config, SOLVE_SCHEMA) == (
        ("grid", "num_points"), "must be an integer, got 7.5")
    # a shallower error wins over every deeper one
    config["unknown"] = 1
    assert _schema_error(config, SOLVE_SCHEMA) == ((), 'unexpected key "unknown"')


# mutation -> whether it applies to a (value, schema) node
_MUTATIONS = {
    "type": lambda value, sub: True,
    "edge value": lambda value, sub: bool(_edges(sub)),
    "unknown key": lambda value, sub: isinstance(value, dict),
    "delete key": lambda value, sub: isinstance(value, dict) and value,
    "extra item": lambda value, sub: isinstance(value, list) and "items" in sub,
}


def _mutate(data, holder, schema):
    """Break one value, key or list item of holder["config"]."""
    mutation = data.draw(st.sampled_from(list(_MUTATIONS)), label="mutation")
    nodes = [(container, key, sub)
             for container, key, sub in _nodes(holder["config"], schema, holder, "config")
             if _MUTATIONS[mutation](container[key], sub)]
    if not nodes:
        mutation, nodes = "type", [(holder, "config", schema)]
    container, key, sub = data.draw(st.sampled_from(nodes), label="node")
    value = container[key]
    if mutation == "type":
        container[key] = data.draw(_ANY)
    elif mutation == "edge value":
        container[key] = data.draw(st.sampled_from(_edges(sub)))
    elif mutation == "unknown key":
        value["unknown"] = data.draw(_ANY)
    elif mutation == "delete key":
        del value[data.draw(st.sampled_from(sorted(value)))]
    else:
        value.append(data.draw(_ANY | from_schema(sub["items"])))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_SCHEMAS)), mutations=st.integers(1, 3), data=st.data())
def test_schema_walk_agrees_with_jsonschema(name, mutations, data):
    # one broken value, key or list item, or up to three, so that errors at
    # different depths meet in one document
    holder = {"config": data.draw(from_schema(_SCHEMAS[name]), label="document")}
    for _ in range(mutations):
        _mutate(data, holder, _SCHEMAS[name])
    _check_against_jsonschema(holder, _SCHEMAS[name])
