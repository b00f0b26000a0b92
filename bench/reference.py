"""Reference check: read a job's artifacts, compare them with a recorded run.

Every job kind yields
  verdicts  exact-match values: certificate flags, labels, integer counts;
  values    floats, each compared within a tolerance stored next to it in
            the reference.  Tolerances come from the program's own floors
            and tolerances (see `tolerances`) and are frozen when recorded;
  digests   sha256 of every artifact except manifest.json;
  certs     (issued, failed) certificates as the program itself reports them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import statistics
from pathlib import Path

EPS = 2.0 ** -52

# estimates-six: the largest field a norm sums over is the refined
# leibniz-band grid (2 * 2 * 256 points) times the refined smoothing time
# grid (2 * 2 * 128 + 1 nodes); n * eps bounds the rounding of such a sum.
ESTIMATES_RTOL = EPS * (4 * 256) * (4 * 128 + 1)

# band-sums: a pair of sizes is one refinement certificate (criterion 04).
BAND_REFINEMENT_TOL = 0.20


def digests(out_dir: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Extraction per job kind.
# ---------------------------------------------------------------------------

PROBE_KEYS = ("a", "b", "t", "omega", "m", "xi")


def _osc(out: Path):
    verdicts, values = {}, {}
    for row in _read_csv(out / "probes.csv"):
        key = ",".join(row[k] for k in PROBE_KEYS)
        verdicts[f"{key}:converged"] = row["converged"] == "true"
        verdicts[f"{key}:label"] = row["label"]
        for col in ("re_direct", "im_direct", "re_contour", "im_contour", "ratio"):
            if row[col]:
                values[f"{key}:{col}"] = float(row[col])
    summary = _json(out / "oscillatory_summary.json")
    agreement = summary["agreement"]
    verdicts["probe_count"] = summary["probe_count"]
    verdicts["all_converged"] = summary["all_converged"]
    verdicts["compared"] = agreement["compared"]
    verdicts["all_agree"] = agreement["all_agree"]
    for name, entry in (summary["arc"] or {}).items():
        verdicts[f"arc.{name}.all_hold"] = entry["all_hold"]
    values["max_gap"] = agreement["max_gap"]

    not_converged = sum(1 for k, v in verdicts.items() if k.endswith(":converged") and not v)
    disagreeing = 0
    for failure in summary["failures"]:
        match = re.match(r"(\d+) probes disagree", failure)
        if match:
            disagreeing = int(match.group(1))
    certs = (summary["probe_count"] + agreement["compared"], not_converged + disagreeing)
    return verdicts, values, certs


def _solve(out: Path):
    contraction = _json(out / "contraction.json")
    norms = _json(out / "norms.json")
    verdicts = {"converged": contraction["converged"], "iterations": contraction["iterations"]}
    values = {"ratio": contraction["ratio"], "radius": contraction["radius"]}
    for i, d in enumerate(contraction["distances"]):
        values[f"distance.{i}"] = d
    for key, value in norms.items():
        if isinstance(value, list):
            for i, item in enumerate(value):
                values[f"norms.{key}.{i}"] = item
        elif value is not None:
            values[f"norms.{key}"] = value
    for row in _read_csv(out / "solution.csv"):
        values[f"u.{row['x']}.re"] = float(row["re_u"])
        values[f"u.{row['x']}.im"] = float(row["im_u"])
    return verdicts, values, (1, 0 if contraction["converged"] else 1)


def _estimates(out: Path):
    summary = _json(out / "estimates_summary.json")
    verdicts, values = {}, {}
    for name, entry in summary.items():
        for key in ("refinement_stable", "sample_count", "discarded", "seed"):
            verdicts[f"{name}.{key}"] = entry[key]
        for key in ("max_ratio", "max_ratio_refined", "drift", "exponent_fit"):
            if entry[key] is not None:
                values[f"{name}.{key}"] = entry[key]
    for row in _read_csv(out / "estimates.csv"):
        for col in ("lhs", "rhs", "ratio"):
            values[f"{row['estimate']}.{row['sample_id']}.{col}"] = float(row[col])
    unstable = sum(1 for entry in summary.values() if not entry["refinement_stable"])
    return verdicts, values, (len(summary), unstable)


def _band(out: Path):
    reports = _json(out / "band_sums.json")["reports"]
    verdicts, values = {}, {}
    by_case: dict = {}
    for rep in reports:
        key = f"{rep['a']},{rep['b']},{rep['t']},{rep['num_points']}"
        for name in ("tail_warning", "n_lo", "n_hi", "n_threshold"):
            verdicts[f"{key}.{name}"] = rep[name]
        for name in ("ratio", "sup", "tail_fraction"):
            values[f"{key}.{name}"] = rep[name]
        for band, sup in rep["band_sups"].items():
            values[f"{key}.band.{band}"] = sup
        by_case.setdefault((rep["a"], rep["b"], rep["t"]), []).append(rep)
    failed = 0
    for case, reps in by_case.items():
        coarse, fine = sorted(reps, key=lambda r: r["num_points"])
        ok = (abs(fine["ratio"] - coarse["ratio"]) <= BAND_REFINEMENT_TOL * coarse["ratio"]
              and not coarse["tail_warning"] and not fine["tail_warning"])
        verdicts["{},{},{}.refinement_ok".format(*case)] = ok
        failed += not ok
    return verdicts, values, (len(by_case), failed)


EXTRACT = {"osc": _osc, "solve": _solve, "estimates": _estimates, "band": _band}


def extract(kind: str, out: Path):
    return EXTRACT[kind](out)


# ---------------------------------------------------------------------------
# Tolerances, frozen into the reference when it is recorded.
# ---------------------------------------------------------------------------

def _median_ratio_tol(distances, ratio, tol):
    """Largest move of the median distance quotient when every distance may
    move by tol (the median is monotone in each quotient)."""
    lo, hi = [], []
    for a, b in zip(distances, distances[1:]):
        if a > 0 and math.isfinite(b / a):
            lo.append(max(b - tol, 0.0) / (a + tol))
            hi.append((b + tol) / (a - tol) if a > tol else math.inf)
    if not lo:
        return 0.0
    return max(ratio - statistics.median(lo), statistics.median(hi) - ratio)


def _series(values: dict, prefix: str) -> list:
    """values[prefix + "0"], values[prefix + "1"], ... in index order."""
    out = []
    while f"{prefix}{len(out)}" in values:
        out.append(values[f"{prefix}{len(out)}"])
    return out


def _spread_tol(history, tol):
    top, bottom = max(history), min(history)
    if bottom <= tol:
        return math.inf
    return (top + tol) / (bottom - tol) - top / bottom


def tolerances(kind: str, values: dict, context: dict) -> dict:
    """Tolerance per value.

    osc        each probe's own agreement tolerance 1e-6 |I| + 8 (floor + err),
               taken from run_probe (context["probe_tols"]); the decay ratio
               scales it like the value; max_gap moves by at most the largest
               direct + contour tolerance of a compared probe.
    solve      the Picard stopping tolerance (context["picard_tol"]) on every
               value; the contraction ratio and the two history spreads get
               that tolerance carried through their formulas.
    estimates  relative n * eps with n the largest summed field; drift and
               the fitted exponent, which are differences, get 4 n * eps.
    band       relative num_points * eps.
    """
    tols = {}
    if kind == "osc":
        probe_tols = context["probe_tols"]
        gap_tol = 0.0
        for key in values:
            if key == "max_gap":
                continue
            probe, col = key.rsplit(":", 1)
            pt = probe_tols[probe]
            a, b, t, omega, m, xi = (float(x) for x in probe.split(","))
            if col == "ratio":
                scale = omega ** m if pt["contour"] is None else omega
                tols[key] = pt["direct"] * scale / (1.0 + t)
            else:
                tols[key] = pt["direct" if "direct" in col else "contour"]
            if pt["contour"] is not None:
                gap_tol = max(gap_tol, pt["direct"] + pt["contour"])
        tols["max_gap"] = gap_tol
    elif kind == "solve":
        tol = context["picard_tol"]
        tols = {key: tol for key in values}
        tols["ratio"] = _median_ratio_tol(_series(values, "distance."), values["ratio"], tol)
        for name in ("h_quarter", "weighted"):
            if f"norms.{name}_ratio" in values:
                history = _series(values, f"norms.{name}_history.")
                tols[f"norms.{name}_ratio"] = _spread_tol(history, tol)
    elif kind == "estimates":
        for key, value in values.items():
            if key.endswith(".drift") or key.endswith(".exponent_fit"):
                tols[key] = 4.0 * ESTIMATES_RTOL * max(1.0, abs(value))
            else:
                tols[key] = ESTIMATES_RTOL * abs(value)
    else:
        for key, value in values.items():
            num_points = int(key.split(",")[3].split(".")[0])
            tols[key] = EPS * num_points * abs(value)
    return tols


def record(kind: str, exit_code: int, out: Path, context: dict) -> dict:
    verdicts, values, _ = extract(kind, out)
    tols = tolerances(kind, values, context)
    return {
        "exit": exit_code,
        "verdicts": verdicts,
        "values": {key: [value, tols[key]] for key, value in values.items()},
        "digests": digests(out),
    }


def compare(reference: dict, exit_code: int, out: Path, kind: str):
    """(mismatches, identical artifacts, certs, values) for one job; certs and
    values are None when the artifacts cannot be read."""
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit code {exit_code}, recorded {reference['exit']}")
    try:
        verdicts, values, certs = extract(kind, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable artifacts: {exc!r}"], 0, None, None
    for key, expected in reference["verdicts"].items():
        if verdicts.get(key) != expected:
            problems.append(f"verdict {key}: {verdicts.get(key)!r}, recorded {expected!r}")
    extra = sorted(set(verdicts) - set(reference["verdicts"]))
    if extra:
        problems.append(f"unrecorded verdicts: {extra[:3]}")
    for key, (expected, tol) in reference["values"].items():
        got = values.get(key)
        if got is None or not abs(got - expected) <= tol:
            problems.append(f"value {key}: {got!r}, recorded {expected!r} +- {tol:.3g}")
    extra = sorted(set(values) - set(reference["values"]))
    if extra:
        problems.append(f"unrecorded values: {extra[:3]}")
    got_digests = digests(out)
    identical = sum(1 for name, digest in reference["digests"].items()
                    if got_digests.get(name) == digest)
    return problems, identical, certs, values
