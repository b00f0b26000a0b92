"""Config fuzzer for `solve`: every schema-valid config runs or is refused.

Configs are drawn from SOLVE_SCHEMA itself (its types, bounds, enums and
required keys), with the grid, the time grid and the iteration counts capped
so that each run stays small.  Whatever the config, `main` must return one of
the documented exit codes, explain a non-zero exit on stderr, and raise
nothing.  A run that exits 0 must have written finite norms.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from nlsa_lab.cli import SOLVE_SCHEMA, main

# upper bounds the schema leaves open, keyed by the field's path
_CAPS = {
    ("grid", "num_points"): 64,
    ("time", "nodes"): 8,
    ("picard", "max_iterations"): 8,
    ("picard", "substeps"): 4,
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
        )
        return ints.map(lambda k: k * step)
    if kind == "number":
        lo = schema.get("minimum", schema.get("exclusiveMinimum"))
        hi = schema.get("maximum", schema.get("exclusiveMaximum"))
        return st.floats(
            lo, hi,
            exclude_min="exclusiveMinimum" in schema,
            exclude_max="exclusiveMaximum" in schema,
            allow_nan=False, allow_infinity=False,
        )
    if kind == "boolean":
        return st.booleans()
    if kind == "string":
        return _NAMES
    raise AssertionError(f"no strategy for schema type {kind!r} at {path}")


def _solve_config(grid=None, initial_data=None, equation=None):
    return {
        "equation": equation or {"preset": "mkdv"},
        "grid": grid or {"num_points": 8, "length": 10.0},
        "time": {"horizon": 0.01, "nodes": 2},
        "initial_data": initial_data or {"kind": "zero"},
    }


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
def test_every_schema_valid_solve_config_runs_or_is_refused(tmp_path_factory, config):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    # stderr is captured by hand: capsys is function-scoped, and hypothesis
    # runs the body many times within one test function
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(path), "--out", str(tmp / "out")])
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert err.getvalue().strip(), f"exit {code} without a message for {config}"
    else:
        # a successful run certifies finite norms (json writes a non-finite
        # one as null); a history's max/min ratio is inf when it touches zero
        norms = json.loads((tmp / "out" / "norms.json").read_text())
        values = [v for key, v in norms.items() if not key.endswith("_ratio")]
        flat = [x for v in values for x in (v if isinstance(v, list) else [v])]
        assert None not in flat, f"exit 0 with non-finite norms for {config}"
