"""Run bench/run.py once per seed and report each metric's spread.

    python3 bench/spread.py --workload osc-sweep --seeds 1 2 3 4 5
    python3 bench/spread.py --workload all --seeds 0-9 --save results.json

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, next to the bound BENCHMARK.json fixes.  --save writes every run's
result line plus the summary to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(items) -> list:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", nargs="+", default=["0-9"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = {}, {}
    for name in names:
        lines = []
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", flush=True)
                continue
            line = json.loads(out.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            lines.append(line)
            print(f"{name} seed {seed}: correct {line['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
                if k in bounds or args.trace), flush=True)
        runs[name] = lines
        if len(lines) >= 2:
            summary[name] = {k: summarize([line["metrics"][k]["value"] for line in lines])
                             for k in lines[0]["metrics"]}
            for k, s in summary[name].items():
                if k in bounds:
                    print(f"  {name} {k:<12} median {s['median']:.6g}  "
                          f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                          f"(bound {bounds[k]}, target < {bounds[k] / 3:.4f})", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
