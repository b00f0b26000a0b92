"""Operator-facing command line for the toolkit.

Each command reads a schema-checked JSON config, writes its artifacts into
the --out directory (CSV for bulk numbers, JSON for reports), and finishes
with a run manifest.  Exit codes: 0 success, 1 bad config or usage, 2
solver non-contraction, 3 numerical verification failure (decay ceiling
exceeded, quadrature non-convergence, or refinement instability).
Identical configs and seeds produce byte-identical reports; the manifest's
wall-clock duration is the one intentionally non-reproducible field.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimates import (
    check_chain_rules,
    check_commutator,
    check_leibniz_band,
    check_leibniz_two_sided,
    check_smoothing,
    check_sup_embedding,
)
from .oscillatory import (
    PhiProfile,
    QuadratureConvergenceError,
    arc_summary,
    build_probe_grid,
    decay_bound_check,
    run_probe,
    _require_probe,
)
from .picard import (
    NonContractionError,
    PicardConfig,
    persistence_report,
    picard_iterate,
    reduction_preset,
    soliton_oracle,
)
from .spectral import (
    EquationParams,
    FlowOverflowError,
    Grid,
    GridFunction,
    _dispersion,
)

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NON_CONTRACTION = 2
EXIT_UNSTABLE = 3


class ConfigError(ValueError):
    """A config file or invocation the tool refuses to run."""


# ---------------------------------------------------------------------------
# Config schemas.
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}


def _num(**bounds) -> dict:
    return {"type": "number", **bounds}


_WEIGHT = _num(minimum=0, exclusiveMaximum=1)  # EquationParams and PhiProfile need m in [0, 1)


_EQUATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"type": "string"},
        "a": _NUMBER,
        "b": _NUMBER,
        "c": _NUMBER,
        "d": _NUMBER,
        "e": _NUMBER,
    },
}

SOLVE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["equation", "grid", "time", "initial_data"],
    "properties": {
        "seed": {"type": "integer"},
        "equation": _EQUATION_SCHEMA,
        "m": _WEIGHT,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["num_points", "length"],
            "properties": {
                "num_points": {"type": "integer", "minimum": 2, "multipleOf": 2},
                "length": _num(exclusiveMinimum=0),
            },
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "required": ["horizon", "nodes"],
            "properties": {
                "horizon": _num(exclusiveMinimum=0),
                "nodes": {"type": "integer", "minimum": 2},
            },
        },
        "picard": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iterations": {"type": "integer", "minimum": 1},
                "tolerance": _num(exclusiveMinimum=0),
            },
        },
        "initial_data": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "gaussian", "soliton"]},
                "amplitude": _num(exclusiveMinimum=0),
                "width": _num(exclusiveMinimum=0),
                "center": _NUMBER,
                "name": {"type": "string"},
                "x_shift": _NUMBER,
            },
        },
    },
}

_PROBE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["a", "b", "t", "omega", "m", "xi"],
    "properties": {
        **{key: _NUMBER for key in ("a", "b", "xi")},
        "t": _num(exclusiveMinimum=0), "omega": _num(exclusiveMinimum=1), "m": _WEIGHT,
    },
}

OSCILLATORY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer"},
        "probes": {"type": "array", "items": _PROBE_SCHEMA, "minItems": 1},
        "omegas": {"type": "array", "items": _num(exclusiveMinimum=1), "minItems": 1},
        "ab_pairs": {
            "type": "array",
            "items": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
            "minItems": 1,
        },
        "m_values": {"type": "array", "items": _WEIGHT, "minItems": 1},
        "t_request": _num(exclusiveMinimum=0),
        "near_fracs": {"type": "array", "items": _num(exclusiveMinimum=0, maximum=1)},
        "far_fracs": {"type": "array", "items": _num(exclusiveMinimum=1)},
        "intermediate_fracs": {
            "type": "array",
            "items": _num(exclusiveMinimum=0.01, exclusiveMaximum=100),
        },
        "ceiling": _num(exclusiveMinimum=0),
        "arc_samples": {"type": "integer", "minimum": 0},
    },
}

# sweep name -> run(params, alpha, **keywords); the table order is the default run order
_ESTIMATES = {
    "smoothing": lambda params, alpha, **kw: check_smoothing(params, **kw),
    "sup-embedding": lambda params, alpha, **kw: check_sup_embedding(**kw),
    "commutator": lambda params, alpha, **kw: check_commutator(alpha=alpha, **kw),
    "leibniz-band": lambda params, alpha, **kw: check_leibniz_band(alpha=alpha, **kw),
    "chain-rule": lambda params, alpha, **kw: check_chain_rules(alpha=alpha, **kw),
    "leibniz-two-sided": lambda params, alpha, **kw: check_leibniz_two_sided(alpha=alpha, **kw),
}


ESTIMATES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        # the packet generator's seed, which numpy's default_rng takes only >= 0
        "seed": {"type": "integer", "minimum": 0},
        "estimates": {"type": "array", "items": {"enum": list(_ESTIMATES)}, "minItems": 1},
        "samples": {"type": "integer", "minimum": 1},
        "alpha": _num(exclusiveMinimum=0, maximum=1),
        "equation": _EQUATION_SCHEMA,
    },
}

# JSON Schema's types: a bool is no number, and a float such as 8.0 is an integer
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "integer": (lambda v: (isinstance(v, int) and not isinstance(v, bool))
                or (isinstance(v, float) and v.is_integer()), "an integer"),
}
# bound keyword -> (the comparison a violating value satisfies, the rule's wording)
_BOUNDS = {
    "minimum": (operator.lt, "at least"),
    "maximum": (operator.gt, "at most"),
    "exclusiveMinimum": (operator.le, "greater than"),
    "exclusiveMaximum": (operator.ge, "less than"),
}


def _schema_error(value, schema, where=()):
    """The shallowest violation of `schema` by `value`, as (path, reason), the
    first in schema order among equally deep ones; None when `value` conforms.

    Covers the JSON Schema keywords the config schemas use: type, properties,
    additionalProperties false, required, enum, the four bounds, multipleOf,
    items, minItems and maxItems.  Each conforming integer field is written
    back as an int, so that 8.0 runs as 8.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind][0](value):
        return where, f"must be {_TYPES[kind][1]}, got {json.dumps(value)}"
    for keyword, arg in schema.items():
        reason = None
        if keyword in _BOUNDS and _BOUNDS[keyword][0](value, arg):
            reason = f"must be {_BOUNDS[keyword][1]} {arg}, got {json.dumps(value)}"
        elif keyword == "multipleOf" and value % arg:
            reason = f"must be a multiple of {arg}, got {json.dumps(value)}"
        elif keyword == "enum" and value not in arg:
            reason = f"must be one of {', '.join(map(json.dumps, arg))}, got {json.dumps(value)}"
        elif keyword == "required" and not set(arg) <= set(value):
            reason = "missing required key " + ", ".join(
                json.dumps(key) for key in arg if key not in value)
        elif keyword == "additionalProperties" and not set(value) <= set(schema["properties"]):
            reason = "unexpected key " + ", ".join(
                json.dumps(key) for key in value if key not in schema["properties"])
        elif keyword == "minItems" and len(value) < arg:
            reason = f"length {len(value)} is below the minimum {arg}"
        elif keyword == "maxItems" and len(value) > arg:
            reason = f"length {len(value)} is above the maximum {arg}"
        if reason:
            return where, reason
    if kind == "object":
        children = [(key, sub) for key, sub in schema["properties"].items() if key in value]
    elif kind == "array":
        children = [(i, schema["items"]) for i in range(len(value))]
    else:
        return None
    found = []
    for key, sub in children:
        error = _schema_error(value[key], sub, where + (key,))
        if error is not None:
            found.append(error)
        elif sub.get("type") == "integer":
            value[key] = int(value[key])
    return min(found, key=lambda error: len(error[0]), default=None)


# ---------------------------------------------------------------------------
# Artifact plumbing.
# ---------------------------------------------------------------------------

def _json_ready(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def write_json(path: Path, payload) -> None:
    """Sorted keys and two-space indent; non-finite floats become null."""
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@contextmanager
def _config_field(where: str, errors=(ValueError, ArithmeticError)):
    """Turn a domain ValueError, or an arithmetic error from values at the edge
    of float64 range, raised inside (or only the given errors) into a
    ConfigError naming the field."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path, schema) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def finite(literal: str) -> float:
        # NaN, Infinity and -Infinity literals, and float literals too big for a double
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: {literal} is not a finite number")
        return value

    try:
        data = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:
        # nesting past the recursion limit, or an integer literal past the
        # interpreter's digit limit for int()
        raise ConfigError(f"{path} is not readable JSON: {exc}") from exc
    error = _schema_error(data, schema)
    if error is not None:
        where, reason = error
        loc = "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in where)
        raise ConfigError(f"{path}: config{loc}: {reason}")
    return data


def _thread_count(text: str) -> int:
    """argparse type of --threads: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _equation_from(config: dict, default: dict | None = None) -> EquationParams:
    equation = config.get("equation", default)
    if "preset" in equation:
        extras = sorted(set(equation) - {"preset"})
        if extras:
            raise ConfigError(
                f"config.equation: give a preset or coefficients, not both "
                f"(unexpected: {', '.join(extras)})"
            )
        with _config_field("config.equation.preset"):
            params = reduction_preset(equation["preset"])
    else:
        for key in ("a", "b"):
            if key not in equation:
                raise ConfigError(
                    f"config.equation: coefficient '{key}' is required without a preset"
                )
        with _config_field("config.equation"):
            params = EquationParams(
                a=equation["a"],
                b=equation["b"],
                c=equation.get("c", 0.0),
                d=equation.get("d", 0.0),
                e=equation.get("e", 0.0),
            )
    if "m" in config:
        with _config_field("config.m"):
            params = replace(params, m=config["m"])
    return params


def _initial_field(spec: dict, grid: Grid) -> GridFunction:
    kind = spec["kind"]
    if kind == "zero":
        return GridFunction(grid, np.zeros(grid.num_points, dtype=np.complex128))
    if kind == "gaussian":
        amplitude = spec.get("amplitude", 1.0)
        width = spec.get("width", 1.0)
        center = spec.get("center", 0.0)
        # a square that overflows to inf gives exp(-inf) = 0, the right value
        with np.errstate(over="ignore"):
            values = amplitude * np.exp(-(((grid.x - center) / width) ** 2)) + 0j
        return GridFunction(grid, values)
    if "name" not in spec:
        raise ConfigError("config.initial_data: soliton data needs a 'name'")
    with _config_field("config.initial_data"):
        soliton = soliton_oracle(
            spec["name"], spec.get("amplitude", 1.0), spec.get("x_shift", 0.0)
        )
        return GridFunction(grid, soliton(grid.x, 0.0))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_solve(config: dict, out: Path, seed: int, threads: int) -> int:
    del seed, threads  # the solve path is deterministic and single-threaded
    params = _equation_from(config)
    # a grid whose frequencies are too many to allocate is refused here too
    with _config_field("config.grid", (ValueError, ArithmeticError, MemoryError)):
        grid = Grid(config["grid"]["num_points"], config["grid"]["length"])
        # a frequency whose cube overflows would otherwise surface in the flow
        # phase as a FlowOverflowError blamed on config.time.horizon; the norms'
        # H^{1/4} weight (1 + xi^2)^(1/4) overflows only where xi^2 does, and
        # a*xi^2 + b*xi^3 is then not finite for any finite a and b
        with np.errstate(over="ignore", invalid="ignore"):
            dispersion = _dispersion(grid.xi_fft, params.a, params.b)
        if not np.isfinite(dispersion).all():
            raise ValueError(
                "the dispersion a*xi^2 + b*xi^3 is not finite on the grid's frequencies"
            )
    u0 = _initial_field(config["initial_data"], grid)
    # the config's picard keys are PicardConfig fields, tolerance aside
    options = dict(config.get("picard", {}))
    if "tolerance" in options:
        options["xt_tolerance"] = options.pop("tolerance")
    with _config_field("config.picard"):
        solver_config = PicardConfig(
            horizon=config["time"]["horizon"], time_nodes=config["time"]["nodes"], **options
        )

    try:
        # a phase or an iterate that overflows float64 is the horizon's doing,
        # a time stack too big to allocate the node count's, and a time grid
        # that does not increase (horizon / nodes below float64's spacing)
        # the two's together
        with _config_field("config.time"), \
                _config_field("config.time.horizon", FlowOverflowError), \
                _config_field("config.time.nodes", MemoryError):
            u, contraction = picard_iterate(u0, params, solver_config)
    except NonContractionError as exc:
        print(f"non-contraction: {exc}", file=sys.stderr)
        return EXIT_NON_CONTRACTION

    # mu3 raises |u_x| to the 20th power, so data far inside float64's range
    # can overflow the norms; a run without finite norms certifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        norms = persistence_report(u, params)
    overflowed = [
        key for key, value in norms.to_dict().items()
        if not key.endswith("_ratio") and not np.isfinite(value).all()
    ]
    if overflowed:
        raise ConfigError(
            f"config.initial_data: the solution's norms overflow float64 "
            f"({', '.join(overflowed)} not finite)"
        )
    rows = [
        (_fmt(x), _fmt(value.real), _fmt(value.imag))
        for x, value in zip(grid.x, u.frames[-1])
    ]
    write_csv(out / "solution.csv", ("x", "re_u", "im_u"), rows)
    write_json(out / "norms.json", norms.to_dict())
    write_json(out / "contraction.json", contraction.to_dict())

    if not contraction.converged:
        print(
            f"did not reach tolerance within {solver_config.max_iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NON_CONTRACTION
    print(
        f"converged in {contraction.iterations} iterations; "
        f"contraction ratio {contraction.ratio:.4f}"
    )
    print(
        f"space-time norm {norms.x_norm:.6g}, weighted sup {norms.weighted_sup:.6g}"
    )
    return EXIT_OK


def _probe_tuples(config: dict) -> list:
    """(field, probe) pairs, each gated before any profile is built; the field
    names the config entry a probe's errors blame."""
    if "probes" in config and "omegas" in config:
        raise ConfigError("config: give explicit probes or a sweep grid, not both")
    if "probes" in config:
        pairs = [(f"config.probes[{i}]", tuple(p[k] for k in ("a", "b", "t", "omega", "m", "xi")))
                 for i, p in enumerate(config["probes"])]
    else:
        for key in ("omegas", "ab_pairs", "m_values"):
            if key not in config:
                raise ConfigError(f"config: sweep needs '{key}' (or give explicit probes)")
        for i, (_, b) in enumerate(config["ab_pairs"]):
            if b == 0:
                raise ConfigError(f"config.ab_pairs[{i}]: b must be nonzero")
        grid_options = {
            key: config[key]
            for key in ("t_request", "near_fracs", "far_fracs", "intermediate_fracs")
            if key in config
        }
        with _config_field("config sweep (omegas, ab_pairs, t_request)"):
            grid = build_probe_grid(config["omegas"], config["ab_pairs"], config["m_values"],
                                    **grid_options)
        # a sweep probe combines several fields, so it is named by its parameters
        pairs = [(f"config sweep probe (a, b, t, omega, m, xi) = {p}", p) for p in grid]
    for where, (a, b, t, omega, _, xi) in pairs:
        with _config_field(where):
            _require_probe(a, b, t, omega, xi)
    return pairs


def cmd_verify_oscillatory(config: dict, out: Path, seed: int, threads: int) -> int:
    del seed  # probes are deterministic; the seed is only manifest metadata
    pairs = _probe_tuples(config)
    arc_samples = config.get("arc_samples", 1000)
    with _config_field("config.arc_samples", MemoryError):
        # the arc check's largest row, refused before any probe runs if it is
        # too big to allocate; np.empty touches no page of a row that fits
        np.empty(arc_samples, dtype=np.complex128)
    for m in sorted({probe[4] for _, probe in pairs}):
        with _config_field("config.probes" if "probes" in config else "config.m_values"):
            # on the main thread: built on a worker thread, in an arena of its
            # own, osc-sweep's peak RSS went from 80.1 to 83.0 MB
            PhiProfile.cached(m)

    def run(pair):
        where, probe = pair
        with _config_field(where):
            return run_probe(*probe)

    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            probes = list(pool.map(run, pairs))
    except QuadratureConvergenceError as exc:
        print(f"quadrature failed to converge: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE

    rows = []
    for p in probes:
        contour_re = _fmt(p.value_contour.real) if p.value_contour is not None else ""
        contour_im = _fmt(p.value_contour.imag) if p.value_contour is not None else ""
        rows.append(
            (
                _fmt(p.a), _fmt(p.b), _fmt(p.t), _fmt(p.omega), _fmt(p.m), _fmt(p.xi),
                p.label.value,
                _fmt(p.value_direct.real), _fmt(p.value_direct.imag),
                contour_re, contour_im,
                _fmt(p.bound_ratio),
                "true" if p.converged else "false",
            )
        )
    write_csv(
        out / "probes.csv",
        ("a", "b", "t", "omega", "m", "xi", "label", "re_direct", "im_direct",
         "re_contour", "im_contour", "ratio", "converged"),
        rows,
    )

    failures = []
    ceiling = config.get("ceiling")
    not_converged = sum(1 for p in probes if not p.converged)
    if not_converged:
        failures.append(f"{not_converged} probes did not converge under step halving")
    compared = [p for p in probes if p.agrees is not None]
    disagreeing = sum(1 for p in compared if not p.agrees)
    if disagreeing:
        failures.append(
            f"{disagreeing} probes disagree between contour and direct quadrature"
        )
    regions = decay_bound_check(probes, ceiling)
    for label, summary in regions.items():
        if summary.ceiling_ok is False:
            failures.append(
                f"{label.value} max decay ratio {summary.max_ratio:.6g} "
                f"exceeds ceiling {ceiling:.6g}"
            )

    arc_payload = arc_summary(probes, arc_samples) if arc_samples else None
    for name, entry in (arc_payload or {}).items():
        if not entry["all_hold"]:
            failures.append(f"{name} arc-exponent inequality failed at some probe")

    summary_payload = {
        "probe_count": len(probes),
        "all_converged": not_converged == 0,
        "agreement": {
            "compared": len(compared),
            "all_agree": disagreeing == 0,
            "max_gap": float(np.max([p.agreement_gap for p in compared], initial=0.0)),
        },
        "regions": {label.value: asdict(summary) for label, summary in regions.items()},
        "arc": arc_payload,
        "ceiling": ceiling,
        "failures": failures,
    }
    write_json(out / "oscillatory_summary.json", summary_payload)

    for label in sorted(regions, key=lambda lab: lab.value):
        summary = regions[label]
        print(
            f"{label.value}: {summary.count} probes, "
            f"max ratio {summary.max_ratio:.6g}, fitted constant "
            f"{summary.fitted_constant:.6g}"
        )
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_verify_estimates(config: dict, out: Path, seed: int, threads: int) -> int:
    names = list(dict.fromkeys(config.get("estimates", _ESTIMATES)))
    params = _equation_from(config, default={"a": 0.0, "b": 1.0})
    alpha = config.get("alpha", 0.25)
    keywords = {"seed": seed}
    if "samples" in config:
        keywords["samples"] = config["samples"]
    # the schema bounds alpha and samples, so only the equation is refused here
    with _config_field("config.equation"), ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda name: _ESTIMATES[name](params, alpha, **keywords), names))

    rows = []
    for result in results:
        for i, (lhs, rhs, ratio) in enumerate(zip(result.lhs, result.rhs, result.ratios)):
            rows.append(
                (result.name, str(result.seed), str(i), _fmt(lhs), _fmt(rhs), _fmt(ratio))
            )
    write_csv(
        out / "estimates.csv",
        ("estimate", "seed", "sample_id", "lhs", "rhs", "ratio"),
        rows,
    )
    per_sample = ("name", "lhs", "rhs", "ratios")  # estimates.csv holds these
    summary = {
        result.name: {k: v for k, v in result.to_dict().items() if k not in per_sample}
        for result in results
    }
    write_json(out / "estimates_summary.json", summary)

    for result in results:
        print(
            f"{result.name}: {result.sample_count} samples, "
            f"max ratio {result.max_ratio:.4f}, drift {result.drift:.4f}, "
            f"stable {result.refinement_stable}"
        )
    unstable = [result.name for result in results if not result.refinement_stable]
    if unstable:
        print(f"refinement instability in: {', '.join(unstable)}", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_report(out: Path) -> int:
    if not out.is_dir():
        raise ConfigError(f"{out} is not a directory")
    runs = []
    for path in sorted(out.rglob("manifest.json")):
        try:
            data = json.loads(path.read_text())
        # ValueError covers undecodable bytes and JSON that does not parse
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: unreadable manifest: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: manifest must be a JSON object")
        duration = data.get("duration_seconds", 0.0)
        if isinstance(duration, bool) or not isinstance(duration, (int, float)):
            raise ConfigError(f"{path}: duration_seconds must be a number, got {duration!r}")
        runs.append(data)
        print(
            f"{data.get('command', '?')}: config {data.get('config', '?')}, "
            f"seed {data.get('seed', '?')}, {duration:.2f} s"
        )
    # durations vary run to run; the aggregate stays byte-reproducible
    stripped = [
        {key: value for key, value in run.items() if key != "duration_seconds"}
        for run in runs
    ]
    write_json(out / "report.json", {"run_count": len(runs), "runs": stripped})
    print(f"aggregated {len(runs)} manifests into {out / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

# command -> (config schema, handler, help); report takes no config and is added apart
_COMMANDS = {
    "solve": (SOLVE_SCHEMA, cmd_solve, "run the fixed-point solver"),
    "verify-oscillatory": (OSCILLATORY_SCHEMA, cmd_verify_oscillatory,
                           "contour-vs-direct probes and decay-bound ratios"),
    "verify-estimates": (ESTIMATES_SCHEMA, cmd_verify_estimates,
                         "inequality ratio sweeps with refinement stability"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsa-lab",
        description=(
            "Solver runs, oscillatory-integral verification, and inequality "
            "sweeps from JSON configs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", required=True, help="path to the JSON config")
    run_flags.add_argument("--out", required=True, help="output directory (created if missing)")
    run_flags.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_flags.add_argument("--threads", type=_thread_count, default=1,
                           help="worker threads (default: 1)")
    for name, (_, _, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[run_flags], help=help_text)
    report = sub.add_parser("report", help="aggregate run manifests under a directory")
    report.add_argument("--out", required=True, help="directory to scan for manifests")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    created = []  # the output directories this run makes, deepest first
    try:
        if args.command == "report":
            return cmd_report(Path(args.out))
        schema, handler, _ = _COMMANDS[args.command]
        config = load_config(args.config, schema)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        # the flag is held to the config seed's bound, where the schema has one
        least = schema["properties"]["seed"].get("minimum")
        if least is not None and seed < least:
            raise ConfigError(f"--seed: must be at least {least}, got {seed}")
        out = Path(args.out)
        created = list(itertools.takewhile(lambda path: not path.exists(), (out, *out.parents)))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        start = time.perf_counter()
        code = handler(config, out, seed, args.threads)
        # what was run: enough to reproduce everything but the duration
        write_json(out / "manifest.json", {
            "command": args.command,
            "config": str(args.config),
            "output_dir": str(out),
            "seed": seed,
            "version": __version__,
            "duration_seconds": time.perf_counter() - start,
        })
        return code
    except ConfigError as exc:
        # a refused run leaves the file system as it found it: each directory
        # it made goes again, if it is still empty
        for directory in created:
            with suppress(OSError):
                directory.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
