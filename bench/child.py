"""One benchmark process: imports nlsa_lab from the checkout and runs one job.

    python3 bench/child.py setup        --stamp F
    python3 bench/child.py cli          --stamp F [--trace T] -- <nlsa-lab args>
    python3 bench/child.py band-sums    --stamp F [--trace T] --out DIR
    python3 bench/child.py order-probe  --out F --seed N
    python3 bench/child.py probe-tolerances --out F --config C
    python3 bench/child.py env          --out F

The parent puts the checkout's src/ first on PYTHONPATH.  Right after
`nlsa_lab.cli` is imported the process writes the CLOCK_MONOTONIC time to the
stamp file; the parent subtracts its spawn time from it to get setup time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time

import nlsa_lab
import nlsa_lab.cli

READY = time.monotonic()

# band-sums: criterion 04's refinement certificate at two (a, b, t) triples.
BAND_SUM_CASES = ((0.0, 1.0, 1.0), (1.0, 1.0, 4.0))
BAND_SUM_SIZES = (2 ** 20, 2 ** 21)
BAND_SUM_M = 0.125

ORDER_PROBE_M = 0.125
ORDER_PROBE_POINTS = 2 ** 14
ORDER_PROBE_SORTED_REPEATS = 5


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _band_sums(out_dir) -> int:
    from nlsa_lab.oscillatory import band_sum_report

    reports = []
    for a, b, t in BAND_SUM_CASES:
        for n in BAND_SUM_SIZES:
            rep = band_sum_report(a, b, t, BAND_SUM_M, num_points=n)
            reports.append({
                "a": a, "b": b, "t": t, "m": BAND_SUM_M, "num_points": n,
                "ratio": rep.ratio,
                "sup": rep.sup,
                "tail_fraction": rep.tail_fraction,
                "tail_warning": rep.tail_warning,
                "n_lo": rep.n_lo,
                "n_hi": rep.n_hi,
                "n_threshold": rep.n_threshold,
                "band_sups": {str(k): v for k, v in rep.band_sups.items()},
                "sums_sha256": hashlib.sha256(rep.sums.tobytes()).hexdigest(),
            })
    _write_json(f"{out_dir}/band_sums.json", {"reports": reports})
    return 0


def _order_probe(out, seed) -> int:
    """eval_real on one fixed input, sorted and shuffled by the seed."""
    import numpy as np
    from nlsa_lab.oscillatory import PhiProfile

    profile = PhiProfile.cached(ORDER_PROBE_M)
    v = np.linspace(-profile.v_end, profile.v_end, ORDER_PROBE_POINTS)
    shuffled = np.random.default_rng(seed).permutation(v)
    sorted_times = []
    for _ in range(ORDER_PROBE_SORTED_REPEATS):
        start = time.perf_counter()
        sorted_vals = profile.eval_real(v)
        sorted_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    shuffled_vals = profile.eval_real(shuffled)
    shuffled_s = time.perf_counter() - start
    order = np.argsort(shuffled)
    if not np.array_equal(shuffled_vals[order], sorted_vals):
        print("eval_real gave different values on shuffled input", file=sys.stderr)
        return 1
    sorted_s = float(np.median(sorted_times))
    _write_json(out, {"sorted_s": sorted_s, "shuffled_s": shuffled_s,
                      "ratio": shuffled_s / sorted_s, "points": ORDER_PROBE_POINTS})
    return 0


def _probe_tolerances(out, config) -> int:
    """Each probe's own agreement tolerance terms, from run_probe."""
    from nlsa_lab import oscillatory

    with open(config) as fh:
        probes = json.load(fh)["probes"]
    rows = {}
    for p in probes:
        r = oscillatory.run_probe(p["a"], p["b"], p["t"], p["omega"], p["m"], p["xi"])
        key = ",".join(format(float(p[k]), ".17g") for k in ("a", "b", "t", "omega", "m", "xi"))
        rows[key] = {
            "direct": oscillatory._RTOL_AGREE * abs(r.value_direct)
            + oscillatory._FLOOR_MULT * (r.floor_direct + r.err_direct),
            "contour": None if r.value_contour is None
            else oscillatory._RTOL_AGREE * abs(r.value_contour)
            + oscillatory._FLOOR_MULT * (r.floor_contour + r.err_contour),
        }
    _write_json(out, rows)
    return 0


def _env(out) -> int:
    import importlib.metadata as md
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if entry.startswith("index"):
            def read(name, entry=entry):
                with open(f"{base}/{entry}/{name}") as fh:
                    return fh.read().strip()
            caches[f"L{read('level')} {read('type')}"] = read("size")
    _write_json(out, {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": md.version("scipy"),
        "jsonschema": md.version("jsonschema"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NLSA_LAB_THREADS")},
        "caches": caches,
        "cpu": platform.processor() or platform.machine(),
    })
    return 0


def _traced(trace_path, job) -> int:
    from tracer import Tracer, summarize

    tracer = Tracer()
    patched = tracer.install(nlsa_lab)
    try:
        code = job()
    finally:
        unrestored = tracer.uninstall()
    _write_json(trace_path, {
        "patched": patched,
        "unrestored": unrestored,
        "names": summarize(tracer.spans, threading.main_thread().ident),
    })
    return code


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=(
        "setup", "cli", "band-sums", "order-probe", "probe-tolerances", "env"))
    parser.add_argument("--stamp")
    parser.add_argument("--trace")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config")
    rest = []
    if "--" in argv:
        rest = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    args = parser.parse_args(argv)
    if args.stamp:
        _write_json(args.stamp, {"ready": READY, "package": nlsa_lab.__file__})

    if args.mode == "setup":
        return 0
    if args.mode == "cli":
        job = lambda: nlsa_lab.cli.main(rest)
    elif args.mode == "band-sums":
        job = lambda: _band_sums(args.out)
    elif args.mode == "order-probe":
        return _order_probe(args.out, args.seed)
    elif args.mode == "probe-tolerances":
        return _probe_tolerances(args.out, args.config)
    else:
        return _env(args.out)
    return _traced(args.trace, job) if args.trace else job()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
