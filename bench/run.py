"""nlsa-lab benchmark: four workloads through the user-facing entry points.

    python3 bench/run.py --workload osc-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload band-sums --trace 1     # per-layer run
    python3 bench/run.py --record                           # rewrite references
    python3 bench/run.py --env                              # environment record

Every job is a fresh `python3 bench/child.py` process with the checkout's
src/ as the only PYTHONPATH entry and its own fresh output directory under
.bench_work/, which is deleted when the run ends.  With --trace 0 the run
repeats the workload while the next repetition still fits in --seconds (at
least once) and reports end-to-end medians.  With --trace 1 it runs the
workload once plain and once with span wrappers (bench/tracer.py) and reports
the per-layer metrics.  The last line of stdout is one JSON object.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "reference"

INPUT_SETS = 10          # the seed picks input set seed % INPUT_SETS
SETUP_PROBES = 4         # extra import-only processes per run, for setup_s
JOB_TIMEOUT_S = 150.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# estimates-six runs every sweep at the program's default sample count; an
# item is one packet field evaluated, base set plus refined set, where the
# refined set holds twice the samples and both hold the sweep's anchors.
ESTIMATE_SAMPLES = {
    "smoothing": (50, 0), "sup-embedding": (30, 0), "commutator": (50, 3),
    "leibniz-band": (50, 3), "chain-rule": (40, 0), "leibniz-two-sided": (40, 0),
}
ESTIMATE_ITEMS = sum(3 * n + 2 * anchors for n, anchors in ESTIMATE_SAMPLES.values())


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

@dataclass
class Job:
    kind: str                 # reference kind: osc, solve, estimates, band
    label: str
    config: dict | None = None

    def prepare(self, job_dir: Path) -> list:
        """Create the job's fresh output directory and config; child.py arguments."""
        (job_dir / "out").mkdir(parents=True)
        if self.kind == "band":
            return ["band-sums", "--out", str(job_dir / "out")]
        (job_dir / "config.json").write_text(json.dumps(self.config, indent=1))
        command = {"osc": "verify-oscillatory", "solve": "solve",
                   "estimates": "verify-estimates"}[self.kind]
        return ["cli", "--", command, "--config", str(job_dir / "config.json"),
                "--out", str(job_dir / "out"), "--threads", "1"]


@dataclass
class Workload:
    name: str
    why: str
    items: int
    seeded: bool              # do the inputs depend on the seed?
    jobs: Callable[[int], list] = field(repr=False)


def _import_program():
    """Make the checkout's nlsa_lab importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _osc_jobs(input_set: int) -> list:
    _import_program()
    from nlsa_lab.oscillatory import build_probe_grid

    grid = build_probe_grid(
        [2.0 ** 8, 2.0 ** 16], [(0.0, 1.0), (1.0, -1.0)], [1 / 16, 1 / 8],
        t_request=0.5, near_fracs=(0.35, 0.8), far_fracs=(1.5,),
        intermediate_fracs=(0.5, 3.0),
    )
    random.Random(input_set).shuffle(grid)
    probes = [dict(zip(reference.PROBE_KEYS, p)) for p in grid]
    return [Job("osc", "verify-oscillatory", {"probes": probes, "arc_samples": 1000})]


def _solve_jobs(input_set: int) -> list:
    grid = {"num_points": 2048, "length": 60.0}
    return [
        Job("solve", "mkdv", {
            "equation": {"preset": "mkdv"}, "grid": grid,
            "time": {"horizon": 0.05, "nodes": 128},
            "initial_data": {"kind": "soliton", "name": "mkdv", "amplitude": 1.0},
        }),
        Job("solve", "nlsa-default", {
            "equation": {"preset": "nlsa-default"}, "grid": grid,
            "time": {"horizon": 0.02, "nodes": 128},
            "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        }),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("osc-sweep", "oscillatory quadrature does the work: profile builds, "
                 "real-axis and contour passes over 40 probes in all three regions",
                 40, True, _osc_jobs),
        Workload("solve-presets", "picard and norms do the work: two Picard solves on "
                 "2048 points, mkdv soliton and nlsa-default Gaussian data",
                 2, False, _solve_jobs),
        Workload("estimates-six", "norms and spectral band operators on small fields: "
                 "all six inequality sweeps at default sample counts",
                 ESTIMATE_ITEMS, True,
                 lambda s: [Job("estimates", "verify-estimates", {"seed": s})]),
        Workload("band-sums", "spectral band operators on 2^20- and 2^21-point "
                 "arrays: four band_sum_report calls",
                 4, False, lambda s: [Job("band", "band_sum_report")]),
    )
}


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NLSA_LAB_THREADS", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Proc:
    code: int
    wall: float
    setup: float | None
    rss_mb: float


def spawn(args: list, job_dir: Path, stamp: bool = True) -> Proc:
    """Run child.py; wall time from spawn to reaped exit, rusage of the child."""
    job_dir.mkdir(parents=True, exist_ok=True)
    stamp_path = job_dir / "stamp.json"
    if stamp:
        args = [args[0], "--stamp", str(stamp_path), *args[1:]]
    with open(job_dir / "stdout.txt", "wb") as out, open(job_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    setup = None
    if stamp and stamp_path.exists():
        info = json.loads(stamp_path.read_text())
        if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"child imported nlsa_lab from {info['package']}, not {SRC}")
        setup = info["ready"] - start
    return Proc(proc.returncode, wall, setup, usage.ru_maxrss / 1024.0)


@dataclass
class Iteration:
    wall: float = 0.0
    setup: float = 0.0
    setups: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    certs_issued: int = 0
    certs_failed: int = 0
    identical: int = 0
    bytes_written: int = 0
    traces: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def run_iteration(workload: Workload, input_set: int, refs, it_dir: Path,
                  trace: bool = False) -> Iteration:
    it = Iteration()
    for index, job in enumerate(workload.jobs(input_set)):
        job_dir = it_dir / f"job{index}"
        args = job.prepare(job_dir)
        if trace:
            args = [args[0], "--trace", str(job_dir / "trace.json"), *args[1:]]
        proc = spawn(args, job_dir)
        it.wall += proc.wall
        it.rss_mb = max(it.rss_mb, proc.rss_mb)
        if proc.setup is not None:
            it.setup += proc.setup
            it.setups.append(proc.setup)
        it.attempted += 1
        out = job_dir / "out"
        it.bytes_written += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        if refs is None:
            problems = ["no reference recorded for this input set"]
        elif proc.code < 0:
            problems = [f"killed by signal {-proc.code} (timeout {JOB_TIMEOUT_S} s)"]
        else:
            problems, identical, certs, values = reference.compare(
                refs[index], proc.code, out, job.kind)
            it.identical += identical
            if certs is not None:
                it.certs_issued += certs[0]
                it.certs_failed += certs[1]
                it.values.update(values)
        if problems:
            it.failed += 1
            it.problems.extend(f"{job.label}: {p}" for p in problems)
        if trace:
            trace_path = job_dir / "trace.json"
            if trace_path.exists():
                it.traces.append(json.loads(trace_path.read_text()))
            else:
                it.failed += not problems
                it.problems.append(f"{job.label}: traced run wrote no trace")
    return it


def load_refs(workload: Workload, input_set: int):
    path = REFERENCES / f"{workload.name}.json"
    if not path.exists():
        return None
    sets = json.loads(path.read_text())["sets"]
    return sets.get(str(input_set) if workload.seeded else "*")


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def tail_percentile(n: int):
    """Highest listed percentile with at least ten of n samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n - _rank(n, p) >= 10:
            best = p
    return best


def _rank(n: int, p: float) -> int:
    """Nearest rank of the p-th percentile of n samples (1-based)."""
    return max(1, math.ceil(n * p / 100.0 - 1e-9))


def percentile(values, p):
    return sorted(values)[_rank(len(values), p) - 1]


def timing_note(values) -> str:
    p = tail_percentile(len(values))
    if p is None:
        return f"n={len(values)}; no percentile has 10 samples beyond it"
    return f"n={len(values)}; p{p:g} {percentile(values, p):.6g}"


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced iteration.
# ---------------------------------------------------------------------------

def merge_traces(traces) -> dict:
    table: dict = {}
    for trace in traces:
        for name, entry in trace["names"].items():
            into = table.setdefault(name, {
                "count": 0, "total_s": 0.0, "self_s": 0.0, "cpu_self_s": 0.0,
                "extra": {}, "durations": []})
            for key in ("count", "total_s", "self_s", "cpu_self_s"):
                into[key] += entry[key]
            into["durations"].extend(entry.get("durations", []))
            for key, value in entry["extra"].items():
                tracer.merge_extra(into["extra"], key, value)
    return table


def layer_metrics(table: dict, plain: Iteration, traced: Iteration, order_ratio) -> dict:
    def get(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    def extra(name, key):
        return table.get(name, {}).get("extra", {}).get(key, 0)

    def layer_sum(prefix, key):
        return sum(e[key] for n, e in table.items() if n.startswith(prefix + "."))

    osc, spec, nrm, pic, est, cli = (
        "oscillatory", "spectral", "norms", "picard", "estimates", "cli")
    direct = f"{osc}.osc_integral_direct"
    contour = f"{osc}.osc_integral_contour"
    probes = table.get(f"{osc}.run_probe", {}).get("durations", [])
    apply_points = extra(f"{spec}.apply_multiplier", "points")
    self_total = sum(e["self_s"] for e in table.values())
    sweeps = {"smoothing": "check_smoothing", "sup_embedding": "check_sup_embedding",
              "commutator": "check_commutator", "leibniz_band": "check_leibniz_band",
              "chain_rule": "check_chain_rules", "leibniz_two_sided": "check_leibniz_two_sided"}
    m = {
        f"{osc}.eval_real_s": (get(f"{osc}.PhiProfile.eval_real"), "s"),
        f"{osc}.eval_real_points": (extra(f"{osc}.PhiProfile.eval_real", "points"), "count"),
        f"{osc}.direct_self_s": (get(direct, "self_s"), "s"),
        f"{osc}.direct_nodes": (extra(direct, "nodes"), "count"),
        f"{osc}.direct_below_floor_frac": (
            extra(direct, "below_floor") / get(direct, "count") if get(direct, "count") else 0.0,
            "ratio"),
        f"{osc}.profile_build_s": (get(f"{osc}.PhiProfile.__init__"), "s"),
        f"{osc}.profile_builds": (get(f"{osc}.PhiProfile.__init__", "count"), "count"),
        f"{osc}.contour_self_s": (get(contour, "self_s"), "s"),
        f"{osc}.contour_nodes": (extra(contour, "nodes"), "count"),
        f"{osc}.eval_shifted_s": (get(f"{osc}.PhiProfile.eval_shifted"), "s"),
        f"{osc}.eval_shifted_points": (extra(f"{osc}.PhiProfile.eval_shifted", "points"), "count"),
        f"{osc}.arc_check_s": (get(f"{osc}.arc_exponent_check"), "s"),
        f"{osc}.probe_p50_s": (statistics.median(probes) if probes else 0.0, "s"),
        # 40 probes leave exactly ten beyond the 75th percentile
        f"{osc}.probe_p75_s": (percentile(probes, 75) if probes else 0.0, "s"),
        f"{osc}.band_sum_s": (get(f"{osc}.band_sum_report"), "s"),
        f"{osc}.max_gap": (traced.values.get("max_gap", 0.0), "abs"),
        f"{osc}.eval_real_shuffled_ratio": (order_ratio or 0.0, "ratio"),
        f"{spec}.eta_points": (extra(f"{spec}.eta", "points"), "count"),
        f"{spec}.qn_calls": (get(f"{spec}.qn_apply", "count") + get(f"{spec}.qn_m_apply", "count"),
                             "count"),
        f"{spec}.qn_s": (get(f"{spec}.qn_apply") + get(f"{spec}.qn_m_apply"), "s"),
        f"{spec}.apply_multiplier_calls": (get(f"{spec}.apply_multiplier", "count"), "count"),
        f"{spec}.apply_multiplier_s": (get(f"{spec}.apply_multiplier"), "s"),
        f"{spec}.apply_multiplier_points": (apply_points, "count"),
        # computed, not measured: complex input (16 B), real symbol (8 B) and
        # complex output (16 B) per point of every apply_multiplier call
        f"{spec}.bytes_moved": (40 * apply_points, "B"),
        f"{pic}.duhamel_calls": (get(f"{pic}.duhamel_apply", "count"), "count"),
        f"{pic}.duhamel_self_s": (get(f"{pic}.duhamel_apply", "self_s"), "s"),
        f"{pic}.semigroup_s": (get(f"{pic}.semigroup_evolve"), "s"),
        f"{pic}.persistence_s": (get(f"{pic}.persistence_report"), "s"),
        f"{pic}.iterations": (extra(f"{pic}.picard_iterate", "iterations"), "count"),
        f"{pic}.ratio": (extra(f"{pic}.picard_iterate", "ratio"), "ratio"),
        f"{nrm}.xt_norm_calls": (get(f"{nrm}.xt_norm", "count"), "count"),
        f"{nrm}.xt_norm_s": (get(f"{nrm}.xt_norm"), "s"),
        f"{nrm}.mu_norms_s": (get(f"{nrm}.mu_norms"), "s"),
        f"{nrm}.sobolev_calls": (get(f"{nrm}.sobolev_norm", "count"), "count"),
        f"{nrm}.sobolev_s": (get(f"{nrm}.sobolev_norm"), "s"),
        f"{nrm}.mixed_norm_calls": (get(f"{nrm}.mixed_norm_x_t", "count")
                                    + get(f"{nrm}.mixed_norm_t_x", "count"), "count"),
        f"{nrm}.mixed_norm_s": (get(f"{nrm}.mixed_norm_x_t") + get(f"{nrm}.mixed_norm_t_x"), "s"),
        f"{nrm}.apply_symbol_calls": (get(f"{nrm}.SpaceTimeField.apply_symbol", "count"), "count"),
        f"{nrm}.apply_symbol_s": (get(f"{nrm}.SpaceTimeField.apply_symbol"), "s"),
        **{f"{est}.{short}_s": (get(f"{est}.{fn}"), "s") for short, fn in sweeps.items()},
        f"{est}.samples": (sum(extra(f"{est}.{fn}", "samples") for fn in sweeps.values()), "count"),
        f"{est}.discarded": (sum(extra(f"{est}.{fn}", "discarded") for fn in sweeps.values()),
                             "count"),
        f"{est}.max_drift": (max(extra(f"{est}.{fn}", "drift") for fn in sweeps.values()), "ratio"),
        f"{cli}.load_config_s": (get(f"{cli}.load_config"), "s"),
        f"{cli}.write_s": (get(f"{cli}.write_json") + get(f"{cli}.write_csv"), "s"),
        f"{cli}.bytes_written": (traced.bytes_written, "B"),
        f"{cli}.cpu_s": (layer_sum(cli, "cpu_self_s"), "s"),
        f"{cli}.artifacts_identical": (traced.identical, "count"),
        **{f"{layer}.self_s": (layer_sum(layer, "self_s"), "s")
           for layer in (cli, osc, spec, nrm, pic, est)},
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
        "trace.self_coverage": (self_total / (traced.wall - traced.setup), "ratio"),
        "cert_fail_frac": (traced.certs_failed / traced.certs_issued
                           if traced.certs_issued else 0.0, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    input_set = seed % INPUT_SETS
    refs = load_refs(workload, input_set)
    setups = []
    for k in range(SETUP_PROBES):
        proc = spawn(["setup"], run_dir / f"setup{k}")
        if proc.code != 0 or proc.setup is None:
            raise SystemExit(f"import-only process failed with exit {proc.code}")
        setups.append(proc.setup)

    iterations = []
    start = time.monotonic()
    while True:
        it = run_iteration(workload, input_set, refs, run_dir / f"it{len(iterations)}")
        iterations.append(it)
        elapsed = time.monotonic() - start
        if trace or elapsed + it.wall > seconds:
            break
    traced = order_ratio = None
    if trace:
        traced = run_iteration(workload, input_set, refs, run_dir / "traced", trace=True)
        unrestored = [name for t in traced.traces for name in t["unrestored"]]
        if unrestored:
            raise SystemExit(f"tracer left patched attributes: {unrestored}")
        if workload.name == "osc-sweep":
            probe_dir = run_dir / "order-probe"
            proc = spawn(["order-probe", "--out", str(probe_dir / "probe.json"),
                          "--seed", str(seed)], probe_dir, stamp=False)
            if proc.code != 0:
                raise SystemExit(f"order probe failed with exit {proc.code}")
            order_ratio = json.loads((probe_dir / "probe.json").read_text())["ratio"]

    everything = iterations + ([traced] if traced else [])
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    certs_issued = sum(it.certs_issued for it in everything)
    certs_failed = sum(it.certs_failed for it in everything)
    setups += [s for it in iterations for s in it.setups]
    jobs = len(workload.jobs(input_set))
    walls = [it.wall for it in iterations]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups) * jobs
    e2e = {
        "wall_s": (wall_s, "s", timing_note(walls)),
        "setup_s": (setup_s, "s", f"{jobs} process(es) x median of {timing_note(setups)}"),
        "items_per_s": (workload.items / (wall_s - setup_s), "1/s",
                        f"{workload.items} items / (wall_s - setup_s)"),
        "peak_rss_mb": (max(it.rss_mb for it in everything), "MB",
                        f"max over {attempted} processes"),
        "failed_frac": (failed / attempted, "ratio", f"{failed}/{attempted} operations"),
        "cert_fail_frac": (certs_failed / certs_issued if certs_issued else 0.0, "ratio",
                           f"{certs_failed}/{certs_issued} certificates"),
    }
    result = {
        "workload": workload.name, "seed": seed, "input_set": input_set,
        "iterations": len(iterations), "attempted": attempted, "failed": failed,
        "problems": [p for it in everything for p in it.problems],
        "end_to_end": e2e,
    }
    if traced:
        table = merge_traces(traced.traces)
        result["per_layer"] = layer_metrics(table, iterations[0], traced, order_ratio)
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']} (input set {result['input_set']}), "
          f"{result['iterations']} iteration(s)")
    for name, (value, unit, note) in result["end_to_end"].items():
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
    for name, (value, unit) in result.get("per_layer", {}).items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")


END_TO_END = ("wall_s", "setup_s", "items_per_s", "peak_rss_mb")


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k][0], "unit": result["end_to_end"][k][1]}
                   for k in END_TO_END}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# Recording references.
# ---------------------------------------------------------------------------

def record_references(run_dir: Path) -> None:
    _import_program()
    from nlsa_lab.picard import PicardConfig

    REFERENCES.mkdir(exist_ok=True)
    context = {"picard_tol": PicardConfig().xt_tolerance}
    for workload in WORKLOADS.values():
        if workload.name == "osc-sweep":
            job_dir = run_dir / "probe-tolerances"
            job_dir.mkdir(parents=True)
            (job_dir / "config.json").write_text(json.dumps(_osc_jobs(0)[0].config))
            proc = spawn(["probe-tolerances", "--out", str(job_dir / "tols.json"),
                          "--config", str(job_dir / "config.json")], job_dir, stamp=False)
            if proc.code != 0:
                raise SystemExit("probe-tolerances failed")
            context["probe_tols"] = json.loads((job_dir / "tols.json").read_text())
        sets = {}
        for input_set in (range(INPUT_SETS) if workload.seeded else ("*",)):
            it_dir = run_dir / f"{workload.name}-{input_set}"
            jobs = workload.jobs(0 if input_set == "*" else input_set)
            refs = []
            for index, job in enumerate(jobs):
                job_dir = it_dir / f"job{index}"
                proc = spawn(job.prepare(job_dir), job_dir)
                refs.append(reference.record(job.kind, proc.code, job_dir / "out", context))
                print(f"recorded {workload.name} set {input_set} job {job.label}: "
                      f"exit {proc.code}, {proc.wall:.1f} s", flush=True)
            sets[str(input_set)] = refs
        (REFERENCES / f"{workload.name}.json").write_text(
            json.dumps({"sets": sets}, indent=0, sort_keys=True) + "\n")


def git_state() -> dict:
    """HEAD and whether the tree (and src/ alone) differs from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
                "src_dirty": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None, "src_dirty": None}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rerun every workload and input set and rewrite bench/reference/")
    parser.add_argument("--env", action="store_true", help="print the environment record")
    args = parser.parse_args(argv)

    if not (SRC / "nlsa_lab" / "cli.py").is_file():
        print(f"no nlsa_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        if args.env:
            spawn(["env", "--out", str(run_dir / "env.json")], run_dir, stamp=False)
            record = json.loads((run_dir / "env.json").read_text())
            record["git"] = git_state()
            print(json.dumps(record, sort_keys=True))
            return 0
        if args.record:
            record_references(run_dir)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            result = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                         run_dir / name)
            print_result(result)
            lines[name] = result_line(result, bool(args.trace))
        if len(names) == 1:
            print(json.dumps(lines[names[0]]))
        else:
            print(json.dumps({
                "correct": all(line["correct"] for line in lines.values()),
                "attempted": sum(line["attempted"] for line in lines.values()),
                "failed": sum(line["failed"] for line in lines.values()),
                "metrics": {f"{name}/{k}": v for name, line in lines.items()
                            for k, v in line["metrics"].items()},
            }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
