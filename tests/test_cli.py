"""End-to-end tests of the command-line interface.

Commands run in-process through main(); artifacts land in pytest temp
directories.  Exit-code contract: 0 success, 1 config/usage error, 2
non-contraction, 3 verification failure.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from nlsa_lab import estimates
from nlsa_lab.cli import SOLVE_SCHEMA, main
from nlsa_lab.oscillatory import PhiProfile
from nlsa_lab.picard import PicardConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def solve_payload(**overrides):
    payload = {
        "equation": {"preset": "mkdv"},
        "grid": {"num_points": 256, "length": 60.0},
        "time": {"horizon": 0.05, "nodes": 16},
        "initial_data": {"kind": "zero"},
    }
    payload.update(overrides)
    return payload


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_zero_data(tmp_path):
    cfg = write_config(tmp_path, solve_payload())
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"solution.csv", "norms.json", "contraction.json", "manifest.json"}
    norms = read_json(out / "norms.json")
    assert norms["x_norm"] == 0.0
    contraction = read_json(out / "contraction.json")
    assert contraction.keys() == {"converged", "distances", "horizon", "iterations", "radius",
                                  "ratio"}
    assert contraction["converged"] is True
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 0
    assert manifest["duration_seconds"] >= 0.0


def test_solve_linear_converges_in_one_iteration(tmp_path):
    cfg = write_config(tmp_path, solve_payload(
        equation={"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0, "e": 0.0},
        initial_data={"kind": "gaussian", "amplitude": 0.5},
    ))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    contraction = read_json(out / "contraction.json")
    assert contraction["distances"] == [0.0]


def test_solve_weighs_the_origin_at_zero_where_x_misses_it(tmp_path):
    # on 298 points of a 60-long grid, x computes the origin, index 149, as
    # -3.6e-15, whose |x|^(1/16) is 0.125; weighing it so moved the weighted
    # sup to 3.18938 and the radius to 13.5196
    cfg = write_config(tmp_path, solve_payload(
        m=0.0625,
        grid={"num_points": 298, "length": 60.0},
        time={"horizon": 0.05, "nodes": 32},
        initial_data={"kind": "soliton", "name": "mkdv", "amplitude": 1.0},
    ))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "norms.json")["weighted_sup"] == pytest.approx(
        3.1864308021330934, rel=1e-12)
    assert read_json(out / "contraction.json")["radius"] == pytest.approx(
        13.513697110945072, rel=1e-12)


@pytest.mark.parametrize("payload", [
    pytest.param(solve_payload(
        equation={"a": 1.0, "b": 1.0},
        initial_data={"kind": "gaussian", "amplitude": amplitude},
    ), id=str(amplitude))
    for amplitude in (1e120, 1e150)
] + [
    # Gaussian data on a grid near float64's range: its square overflows, and
    # so do the norms behind the contraction report's radius
    pytest.param({
        "equation": {"a": -1.79e308, "b": -8.6e241},
        "grid": {"num_points": 22, "length": 7.23e307},
        "time": {"horizon": 120, "nodes": 8},
        "initial_data": {"kind": "gaussian"},
    }, id="near-float64-range"),
])
def test_solve_whose_norms_overflow_names_the_initial_data(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config.initial_data" in err and "overflow" in err
    assert not (out / "norms.json").exists()


def test_solve_non_contraction_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, solve_payload(
        grid={"num_points": 1024, "length": 60.0},
        time={"horizon": 2.0, "nodes": 32},
        initial_data={"kind": "soliton", "name": "mkdv", "amplitude": 3.0},
    ))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "non-contraction" in capsys.readouterr().err
    # even a failed run leaves a manifest behind
    assert (out / "manifest.json").exists()


def test_solve_refuses_a_sobolev_index(tmp_path, capsys, monkeypatch):
    # the data space is H^{1/4} cap L^2(|x|^{2m} dx): the Sobolev index is no
    # setting, so a config that gives one, even the paper's 1/4, is refused
    monkeypatch.setattr("nlsa_lab.cli.picard_iterate", lambda *args: pytest.fail("solved"))
    for value in (0.25, 400):
        cfg = write_config(tmp_path, solve_payload(s=value))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert 'config: unexpected key "s"' in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("substeps", 2), ("dealias", True), ("full_derivative_mode", False),
], ids=["substeps", "dealias", "full_derivative_mode"])
def test_solve_refuses_a_removed_picard_key(tmp_path, capsys, key, value):
    # the solver has one discretisation: the cubic at the nodes and the
    # midpoints, dealiased, term by term; the keys that chose another are
    # gone, so a config setting one, even to the old default, is refused
    cfg = write_config(tmp_path, solve_payload(picard={key: value}))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f'config.picard: unexpected key "{key}"' in err and "Traceback" not in err


def test_solve_picard_keys_are_the_picard_config_fields():
    # one statement of the solve config: each key of the schema's picard
    # section is a PicardConfig field and back, the time grid's two aside
    schema_keys = set(SOLVE_SCHEMA["properties"]["picard"]["properties"])
    renamed = {"tolerance": "xt_tolerance"}
    fields = {f.name for f in dataclasses.fields(PicardConfig)} - {"horizon", "time_nodes"}
    assert {renamed.get(key, key) for key in schema_keys} == fields
    assert len(schema_keys) == len(fields)


def test_solve_with_a_horizon_below_the_time_spacing_names_the_time_section(tmp_path, capsys):
    # linspace(0, 5e-324, 9) repeats 0, so the time grid does not increase;
    # the refusal blamed config.picard, which the config does not give
    cfg = write_config(tmp_path, solve_payload(time={"horizon": 5e-324, "nodes": 8}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config.time: times must increase strictly" in err and "config.picard" not in err


# ---------------------------------------------------------------------------
# config rejection
# ---------------------------------------------------------------------------

def test_missing_required_section_names_the_field(tmp_path, capsys):
    payload = solve_payload()
    del payload["time"]
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "time" in capsys.readouterr().err


def test_bad_nested_value_reports_field_path(tmp_path, capsys):
    cfg = write_config(tmp_path, solve_payload(time={"horizon": -1.0, "nodes": 16}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config.time.horizon" in capsys.readouterr().err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, solve_payload(horizon=0.1))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "horizon" in capsys.readouterr().err


def test_invalid_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


# the interpreter's limit on the digits int() converts; 0 where there is none
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# files json cannot decode without raising something other than JSONDecodeError
_UNDECODABLE = {
    "non-utf8": b'{"samples": "\xff\xfe"}',
    "nested": b"[" * 100_000,
    "digits": b'{"samples": ' + b"1" * (_INT_DIGITS + 1) + b"}",
}


@pytest.mark.parametrize("defect", [
    "non-utf8", "nested",
    pytest.param("digits", marks=pytest.mark.skipif(
        not _INT_DIGITS, reason="this interpreter converts integers of any length")),
])
def test_undecodable_config_rejected(tmp_path, capsys, defect):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(_UNDECODABLE[defect])
    out = tmp_path / "o"
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["non-utf8", "nested"])
def test_report_rejects_an_undecodable_manifest(tmp_path, capsys, defect):
    manifest = tmp_path / "runs" / "a" / "manifest.json"
    manifest.parent.mkdir(parents=True)
    manifest.write_bytes(_UNDECODABLE[defect])
    assert main(["report", "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(manifest) in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs" / "report.json").exists()


def test_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_preset_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, solve_payload(equation={"preset": "kdv5"}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "preset" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert main(["solve"]) == 1  # missing --config/--out
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify-oscillatory
# ---------------------------------------------------------------------------

def test_oscillatory_single_probe(tmp_path):
    cfg = write_config(tmp_path, {
        "probes": [{"a": 0.0, "b": 1.0, "t": 1.0, "omega": 1024.0, "m": 0.125, "xi": 1.0}],
        "arc_samples": 200,
    })
    out = tmp_path / "out"
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "probes.csv").read_text().splitlines()
    assert lines[0] == ("a,b,t,omega,m,xi,label,re_direct,im_direct,"
                        "re_contour,im_contour,ratio,converged")
    assert len(lines) == 2
    assert ",near," in lines[1]
    summary = read_json(out / "oscillatory_summary.json")
    assert summary["all_converged"] is True
    assert summary["agreement"]["all_agree"] is True
    assert summary["regions"]["near"]["count"] == 1
    assert summary["arc"]["near"]["all_hold"] is True
    assert summary["failures"] == []


def test_oscillatory_sweep_grid_covers_regions(tmp_path):
    cfg = write_config(tmp_path, {
        "omegas": [256.0],
        "ab_pairs": [[0.0, 1.0]],
        "m_values": [0.0],
        "near_fracs": [0.35],
        "far_fracs": [1.5],
        "arc_samples": 100,
    })
    out = tmp_path / "out"
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "oscillatory_summary.json")
    assert summary["probe_count"] == 2
    assert summary["regions"]["near"]["count"] == 1
    assert summary["regions"]["far"]["count"] == 1


def test_oscillatory_rejects_inadmissible_probe(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "probes": [{"a": 5.0, "b": 1.0, "t": 1.0, "omega": 2.0, "m": 0.0, "xi": 1.0}],
    })
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "probes[0]" in capsys.readouterr().err


# a probe the schema accepts but run_probe's gate refuses: a / (2b) = 2.5 > xi
_GATED_PROBE = {"probes": [{"a": 5.0, "b": 1.0, "t": 1.0, "omega": 2.0, "m": 0.0, "xi": 1.0}]}


def test_a_refused_run_removes_the_output_directories_it_made(tmp_path, capsys):
    cfg = write_config(tmp_path, _GATED_PROBE)
    out = tmp_path / "a" / "b" / "c"
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config.probes[0]" in capsys.readouterr().err
    # a, a/b and a/b/c were made by the run and go; tmp_path was there before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("held", [[], ["notes.txt"]], ids=["empty", "holding-a-file"])
def test_a_refused_run_leaves_an_existing_output_directory_as_it_was(tmp_path, capsys, held):
    cfg = write_config(tmp_path, _GATED_PROBE)
    out = tmp_path / "out"
    out.mkdir()
    for name in held:
        (out / name).write_text("kept\n")
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config.probes[0]" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == held
    assert all((out / name).read_text() == "kept\n" for name in held)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oscillatory_refuses_arc_samples_too_big_to_allocate(tmp_path, capsys):
    # 10^12 samples is schema-valid; the arc check's rows ran out of memory
    # after every probe had run, in a traceback.  numpy refuses an array
    # this size without allocating it
    cfg = write_config(tmp_path, {
        "probes": [{"a": 0, "b": 1, "t": 0.5, "omega": 256, "m": 0.125, "xi": 0.5}],
        "arc_samples": 1000000000000,
    })
    out = tmp_path / "o"
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config.arc_samples" in err and "Traceback" not in err
    assert not (out / "probes.csv").exists()  # refused before any probe ran


def test_oscillatory_rejects_probes_plus_sweep(tmp_path, capsys):
    # each sweep key alone: probes with any but omegas once exited 0 and
    # ignored the key
    sweep = {"omegas": [64.0], "ab_pairs": [[0.0, 1.0]], "m_values": [0.0], "t_request": 1.0,
             "near_fracs": [0.5], "far_fracs": [2.0], "intermediate_fracs": [1.0]}
    for key, value in sweep.items():
        cfg = write_config(tmp_path, {
            "probes": [{"a": 0.0, "b": 1.0, "t": 1.0, "omega": 64.0, "m": 0.0, "xi": 1.0}],
            key: value,
        })
        out = tmp_path / "o"
        assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 1, key
        err = capsys.readouterr().err
        assert f"config.{key}" in err and "not both" in err
        assert not out.exists()


def test_oscillatory_ceiling_violation_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "probes": [{"a": 0.0, "b": 1.0, "t": 1.0, "omega": 1024.0, "m": 0.125, "xi": 1.0}],
        "ceiling": 1e-12,
        "arc_samples": 0,
    })
    out = tmp_path / "out"
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(out)]) == 3
    assert "exceeds ceiling" in capsys.readouterr().err
    summary = read_json(out / "oscillatory_summary.json")
    assert summary["failures"]
    assert summary["regions"]["near"]["ceiling_ok"] is False


# ---------------------------------------------------------------------------
# verify-estimates
# ---------------------------------------------------------------------------

def test_estimates_refuses_samples_too_big_to_allocate(tmp_path, capsys, monkeypatch):
    # 10^30 samples is schema-valid; it drew packets until killed and left
    # its output directory.  numpy refuses the result rows without
    # allocating them
    def no_draw(*args, **kwargs):
        raise AssertionError("a packet was drawn")

    monkeypatch.setattr(estimates, "random_wave_packets", no_draw)
    for samples in (10**30, 10**12):
        cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": samples})
        out = tmp_path / "o"
        assert main(["verify-estimates", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config.samples" in err and "Traceback" not in err
        assert not out.exists()


def test_estimates_single_sweep(tmp_path):
    cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": 5, "seed": 3})
    out = tmp_path / "out"
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[0] == "estimate,seed,sample_id,lhs,rhs,ratio"
    assert all(line.startswith("commutator,3,") for line in lines[1:])
    summary = read_json(out / "estimates_summary.json")
    assert summary["commutator"]["refinement_stable"] is True
    assert summary["commutator"]["sample_count"] == len(lines) - 1


def test_estimates_unknown_name_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"estimates": ["bogus"]})
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert 'config.estimates[0]: must be one of "smoothing", ' in err and 'got "bogus"' in err


def test_estimates_instability_exits_3(tmp_path, capsys):
    # one sample cannot saturate the smoothing max: refinement doubles the
    # sample count and legitimately moves it, which the tool must flag
    cfg = write_config(tmp_path, {"estimates": ["smoothing"], "samples": 1, "seed": 0})
    out = tmp_path / "out"
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(out)]) == 3
    assert "smoothing" in capsys.readouterr().err
    summary = read_json(out / "estimates_summary.json")
    assert summary["smoothing"]["refinement_stable"] is False


def test_estimates_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": 4, "seed": 3})
    out = tmp_path / "out"
    rc = main(["verify-estimates", "--config", str(cfg), "--out", str(out), "--seed", "9"])
    assert rc == 0
    assert read_json(out / "manifest.json")["seed"] == 9
    first = (out / "estimates.csv").read_text().splitlines()[1]
    assert first.startswith("commutator,9,")


@pytest.mark.parametrize("config_seed, flags, named", [
    (-1, [], "config.seed"),
    (3, ["--seed", "-3"], "--seed"),
])
def test_estimates_negative_seed_names_the_seed(tmp_path, capsys, config_seed, flags, named):
    # numpy's packet generator refuses a negative seed, which the run used to
    # blame on config.equation
    cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": 2, "seed": config_seed})
    out = tmp_path / "out"
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{named}: must be at least 0" in err
    assert "config.equation" not in err and "Traceback" not in err
    assert not out.exists()


def test_solve_keeps_a_negative_seed_as_metadata(tmp_path):
    # solve and verify-oscillatory draw nothing from the seed
    cfg = write_config(tmp_path, solve_payload(seed=-1))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "-3"]) == 0
    assert read_json(out / "manifest.json")["seed"] == -3


# ---------------------------------------------------------------------------
# determinism and threading
# ---------------------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": 4, "seed": 1})
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["verify-estimates", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(
            ((out / "estimates.csv").read_bytes(),
             (out / "estimates_summary.json").read_bytes())
        )
    assert blobs[0] == blobs[1]


def test_thread_count_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path, {
        "estimates": ["commutator", "leibniz-band"], "samples": 4, "seed": 2,
    })
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["verify-estimates", "--config", str(cfg), "--out", str(serial)]) == 0
    rc = main(["verify-estimates", "--config", str(cfg), "--out", str(threaded),
               "--threads", "2"])
    assert rc == 0
    reference = (serial / "estimates_summary.json").read_bytes()
    assert (threaded / "estimates_summary.json").read_bytes() == reference


def test_thread_count_does_not_change_the_factor_sweeps(tmp_path):
    # these sweeps apply their multipliers through BLAS matrix products
    cfg = write_config(tmp_path, {
        "estimates": ["sup-embedding", "chain-rule", "leibniz-two-sided"],
        "samples": 3, "seed": 2,
    })
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        code = main(["verify-estimates", "--config", str(cfg), "--out", str(out),
                     "--threads", threads])
        runs.append((code, (out / "estimates.csv").read_bytes(),
                     (out / "estimates_summary.json").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flags, code", [
    ([], 0),
    (["--threads", "0"], 1),
    (["--threads", "-1"], 1),
    (["--threads", "lots"], 1),
    (["--threads", "2.5"], 1),
    (["--threads", ""], 1),
], ids=["default", "0", "-1", "lots", "2.5", "empty"])
def test_thread_count_contract(tmp_path, capsys, flags, code):
    # --threads, default 1, is the one way to set the worker count
    cfg = write_config(tmp_path, {"estimates": ["commutator"], "samples": 2})
    args = ["verify-estimates", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(args + flags) == code
    err = capsys.readouterr().err
    if code:
        assert "--threads" in err and "not a positive integer" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the README's configs
# ---------------------------------------------------------------------------

def readme_config(section):
    """The JSON block under README.md's ``### <section>`` heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = text.split(f"\n### {section}\n", 1)[1]
    return json.loads(body.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_configs_run_as_the_readme_states(tmp_path):
    codes = {}
    for command in ("solve", "verify-oscillatory", "verify-estimates"):
        cfg = write_config(tmp_path, readme_config(command), f"{command}.json")
        codes[command] = main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    assert codes == {"solve": 0, "verify-oscillatory": 0, "verify-estimates": 3}
    # the smoothing drift and max ratios the README quotes, at its digits
    smoothing = read_json(tmp_path / "verify-estimates" / "estimates_summary.json")["smoothing"]
    quoted = (smoothing["drift"], smoothing["max_ratio"], smoothing["max_ratio_refined"])
    assert tuple(round(value, 3) for value in quoted) == (0.457, 0.295, 0.431)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_aggregates_manifests(tmp_path):
    cfg = write_config(tmp_path, solve_payload())
    est = write_config(tmp_path, {"estimates": ["commutator"], "samples": 4}, "est.json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "runs" / "a")]) == 0
    assert main(["verify-estimates", "--config", str(est),
                 "--out", str(tmp_path / "runs" / "b")]) == 0
    assert main(["report", "--out", str(tmp_path / "runs")]) == 0
    report = read_json(tmp_path / "runs" / "report.json")
    assert report["run_count"] == 2
    assert {run["command"] for run in report["runs"]} == {"solve", "verify-estimates"}
    assert all("duration_seconds" not in run for run in report["runs"])


def test_report_missing_directory(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "absent")]) == 1
    assert "not a directory" in capsys.readouterr().err


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "nlsa_lab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verify-oscillatory" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; every CLI process pays for what it imports
    check = ("import sys, nlsa_lab.cli; "
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
             "print(loaded); sys.exit(1 if loaded else 0)")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_import_loads_no_jsonschema():
    # jsonschema is the config validator's test oracle; the CLI walks its schemas itself
    check = ("import sys, nlsa_lab.cli; "
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] in "
             "('jsonschema', 'referencing', 'rpds', 'attrs')); "
             "print(loaded); sys.exit(1 if loaded else 0)")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# values the schema used to pass and the program then rejected
# ---------------------------------------------------------------------------

_PROBE = {"a": 0.0, "b": 1.0, "t": 1.0, "omega": 1024.0, "m": 1.5, "xi": 1.0}


@pytest.mark.parametrize("command, payload, field", [
    ("solve", solve_payload(m=1.5), "config.m"),
    ("solve", solve_payload(grid={"num_points": 255, "length": 60.0}),
     "config.grid.num_points"),
    ("solve", solve_payload(time={"horizon": 0.05, "nodes": 1}), "config.time.nodes"),
    ("verify-oscillatory", {"probes": [_PROBE]}, "config.probes[0].m"),
    ("verify-oscillatory",
     {"omegas": [256.0], "ab_pairs": [[0.0, 1.0]], "m_values": [0.0, 1.5]},
     "config.m_values[1]"),
    ("verify-estimates",
     {"estimates": ["smoothing"], "samples": 2, "equation": {"a": 1e308, "b": 1}},
     "config.equation"),
    ("verify-estimates", {"estimates": ["smoothing"], "equation": {"preset": "nls"}},
     "config.equation"),
])
def test_out_of_domain_values_name_the_field(tmp_path, capsys, command, payload, field):
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["mkdv", "nls"])
def test_solve_refuses_a_soliton_amplitude_whose_square_overflows(tmp_path, capsys, name):
    # the profile's Python float power k**2 raised OverflowError, and the
    # message named the section only: "(34, 'Numerical result out of range')"
    cfg = write_config(tmp_path, solve_payload(
        equation={"preset": name},
        initial_data={"kind": "soliton", "name": name, "amplitude": 1e200},
    ))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config.initial_data: amplitude 1e+200: its square overflows float64" in err
    assert "Traceback" not in err and "out of range" not in err


def test_solve_grid_with_overflowing_dispersion_names_the_grid(tmp_path, capsys):
    # the top frequency of a 1e-300-long grid cubes to inf; the run used to
    # exit 2 on NaN Picard distances
    cfg = write_config(tmp_path, solve_payload(grid={"num_points": 2, "length": 1e-300}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config.grid" in err and "dispersion" in err
    assert "Traceback" not in err


# Two configs the derandomized schema fuzzer (tests/test_config_fuzz.py)
# reaches, and one of each kind at the scale where it first showed: a flow
# phase t*(a*xi^2 + b*xi^3) that overflows float64, and Picard iterates that
# overflow.  Each used to run to NaN distances and exit 2 blaming
# contraction, after numpy overflow warnings.
_PHASE = "flow phase"
_ITERATES = "Picard iterates"


@pytest.mark.parametrize("payload, cause", [
    (solve_payload(
        equation={"a": 6.339975406676399e16, "b": 5.389646071853542e301,
                  "c": 8.105387394488435e-75, "d": 5.624587289108232e252,
                  "e": -3.641815808262823e-176},
        grid={"num_points": 56, "length": 4.974671610284207e16},
        time={"horizon": 8.248093612828696e307, "nodes": 6},
        initial_data={"kind": "gaussian", "x_shift": -6.902004549061749e16},
        picard={"tolerance": 8.0, "max_iterations": 5},
    ), _PHASE),
    (solve_payload(
        equation={"a": -4.630439892199128e16, "b": -4.5114390995696056e16,
                  "c": -5.81260826183275e37, "d": -3.106359129174815e16,
                  "e": 6.106538170456041e16},
        grid={"num_points": 12, "length": 3.773082309926514e16},
        time={"horizon": 1.5598678026544876e308, "nodes": 5},
        initial_data={"kind": "gaussian"},
    ), _ITERATES),
    (solve_payload(
        grid={"num_points": 58, "length": 10.0},
        time={"horizon": 9.04e307, "nodes": 4},
        initial_data={"kind": "gaussian"},
    ), _PHASE),
    (solve_payload(
        equation={"a": 1.0, "b": 1.0, "c": -6.3e15},
        grid={"num_points": 32, "length": 20.0},
        time={"horizon": 1.7e16, "nodes": 4},
        initial_data={"kind": "gaussian"},
    ), _ITERATES),
])
def test_solve_whose_flow_overflows_names_the_horizon(tmp_path, capsys, payload, cause):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config.time.horizon" in err and cause in err and "overflow" in err
    assert "Traceback" not in err and "non-contraction" not in err
    assert not (out / "norms.json").exists()


# 10^18 eight-byte entries are 8 EB, more than any 64-bit machine's virtual
# address space holds, so numpy's allocation fails at once and touches no page
@pytest.mark.parametrize("overrides, field", [
    ({"grid": {"num_points": 10**18, "length": 60.0}}, "config.grid"),
    ({"time": {"horizon": 0.05, "nodes": 10**18}}, "config.time.nodes"),
], ids=["num_points", "nodes"])
def test_solve_refuses_arrays_too_big_to_allocate(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, solve_payload(**overrides))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "allocate" in err
    assert "Traceback" not in err
    assert not (out / "norms.json").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_rejected(tmp_path, capsys, literal):
    text = json.dumps(solve_payload()).replace('"horizon": 0.05', f'"horizon": {literal}')
    assert literal in text
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{literal} is not a finite number" in err
    assert "times must increase" not in err


# ---------------------------------------------------------------------------
# probes the program used to accept and then fail on
# ---------------------------------------------------------------------------

_EDGE_PROBE = {"a": 0.0, "b": 1.0, "t": 0.1, "m": 0.125, "xi": 0.0}


@pytest.mark.parametrize("payload, fields", [
    ({"probes": [{**_EDGE_PROBE, "omega": 0.5}]}, ["config.probes[0].omega"]),
    ({"probes": [{**_EDGE_PROBE, "omega": 1024.0, "xi": 1e200}]}, ["config.probes[0]"]),
    ({"omegas": [1e30], "ab_pairs": [[0.0, 1.0]], "m_values": [0.0], "near_fracs": []},
     ["config sweep probe", "1e+30"]),
    # the phase t (a z^2 + b z^3) overflows on the path
    ({"probes": [{**_EDGE_PROBE, "omega": 1024.0, "xi": 3e153}]}, ["config.probes[0]", "xi"]),
    ({"probes": [{**_EDGE_PROBE, "omega": 1024.0, "xi": 1e200}]}, ["config.probes[0]", "xi"]),
    # a / (2b) overflows, so no t > 0 is admissible
    ({"omegas": [1024.0], "ab_pairs": [[1e200, 1e-200]], "m_values": [0.125]},
     ["config sweep (omegas, ab_pairs, t_request)", "t must be positive"]),
])
def test_probes_out_of_range_name_the_field(tmp_path, capsys, payload, fields):
    cfg = write_config(tmp_path, payload)
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert all(field in err for field in fields)
    assert "Traceback" not in err


def test_sweep_whose_divided_t_bound_was_inadmissible_runs(tmp_path):
    # at t = 1024 / 21462.25 the gate read omega/(|b| t) < 1e4 (a/(2b))^2
    cfg = write_config(tmp_path, {
        "omegas": [1024], "ab_pairs": [[-2.93, -1.0]], "m_values": [0.125],
    })
    assert main(["verify-oscillatory", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) in (0, 3)


def test_sweep_probes_are_gated_before_any_profile_build(tmp_path, capsys, monkeypatch):
    builds = []
    init = PhiProfile.__init__
    monkeypatch.setattr(PhiProfile, "_cache", {})
    monkeypatch.setattr(
        PhiProfile, "__init__", lambda self, *a, **k: builds.append(1) or init(self, *a, **k)
    )
    # the far probe's phase leaves float64 on its path
    cfg = write_config(tmp_path, {
        "omegas": [1e250], "ab_pairs": [[0.0, 1.0]], "m_values": [0.125],
    })
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config sweep probe" in err and "xi" in err
    assert "Traceback" not in err
    assert builds == []


def test_sweep_whose_arc_bound_overflows_names_omega_eps(tmp_path, capsys):
    # omega * eps ~ 1.4e45 is finite, but the arc's integration-by-parts bound
    # takes its eighth power
    cfg = write_config(tmp_path, {
        "omegas": [1e30], "ab_pairs": [[0.0, 1.0]], "m_values": [0.0], "near_fracs": [],
    })
    assert main(["verify-oscillatory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "omega * eps" in err and "overflows" in err
    assert "Traceback" not in err


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_sweep_with_overflowing_arc_radius_names_the_probe(tmp_path):
    # omega * eps overflows to inf, and the arc panelling used to append
    # breakpoints forever; the child gets its own memory cap and time limit
    cfg = write_config(tmp_path, {
        "omegas": [1e300], "ab_pairs": [[0.0, 1.0]], "m_values": [0.0], "near_fracs": [],
    })
    proc = subprocess.run(
        [sys.executable, "-m", "nlsa_lab.cli", "verify-oscillatory",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert "config sweep probe" in proc.stderr and "1e+300" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# malformed manifests found by report
# ---------------------------------------------------------------------------

def test_report_rejects_manifest_that_is_not_an_object(tmp_path, capsys):
    run = tmp_path / "runs" / "a"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps(["solve"]))
    assert main(["report", "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert "manifest.json" in err and "JSON object" in err
    assert "Traceback" not in err


def test_report_rejects_null_duration(tmp_path, capsys):
    run = tmp_path / "runs" / "a"
    run.mkdir(parents=True)
    # null, and an integer past float64's range, which the duration's
    # formatting once raised OverflowError on
    for duration in (None, 10**400):
        manifest = {"command": "solve", "duration_seconds": duration}
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "duration_seconds" in err
        assert "Traceback" not in err
