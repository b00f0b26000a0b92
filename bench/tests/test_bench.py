"""Self-tests of the benchmark's own arithmetic and plumbing.

Run with `python3 -m pytest bench/tests -q`; the repository's test suite
(testpaths = tests) does not collect them, so benchmark code never enters
tier-1 timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _span(name, start, end, parent, thread=1, cpu=None):
    cpu_start, cpu_end = cpu if cpu else (start, end)
    return [name, start, end, parent, thread, cpu_start, cpu_end, None]


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    selfs = [wall for wall, _ in tracer.self_times(spans)]
    assert selfs == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(selfs) == pytest.approx(10.0)
    table = tracer.summarize(spans)
    assert table["root"]["total_s"] == pytest.approx(10.0)
    assert table["root"]["self_s"] == pytest.approx(6.0)


def test_worker_thread_span_is_charged_to_the_waiting_span():
    spans = [
        _span("main", 0.0, 10.0, None, thread=1),
        _span("wait", 1.0, 9.0, 0, thread=1),
        _span("task", 2.0, 8.0, None, thread=2, cpu=(0.0, 6.0)),
        _span("task.inner", 3.0, 5.0, 2, thread=2, cpu=(1.0, 3.0)),
    ]
    selfs = tracer.self_times(spans, main_thread=1)
    assert [w for w, _ in selfs] == pytest.approx([2.0, 2.0, 4.0, 2.0])
    assert selfs[2][1] == pytest.approx(4.0)  # cpu minus same-thread child cpu


def test_overlapping_children_are_counted_once():
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracer.covered([]) == 0.0


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, expected))
        assert beyond >= 10


def _band_artifact(out: Path, ratio=1.2, warning=False):
    reports = []
    for a, b, t in ((0.0, 1.0, 1.0), (1.0, 1.0, 4.0)):
        for n in (2 ** 20, 2 ** 21):
            reports.append({
                "a": a, "b": b, "t": t, "m": 0.125, "num_points": n, "ratio": ratio,
                "sup": 2 * ratio, "tail_fraction": 1e-4, "tail_warning": warning,
                "n_lo": -2, "n_hi": 14, "n_threshold": 0, "band_sups": {"0": 0.5},
                "sums_sha256": "0" * 64,
            })
    out.mkdir(exist_ok=True)
    (out / "band_sums.json").write_text(json.dumps({"reports": reports}, sort_keys=True))
    (out / "manifest.json").write_text("{}")


def test_reference_check_accepts_identical_and_flags_changes(tmp_path):
    out = tmp_path / "out"
    _band_artifact(out)
    ref = reference.record("band", 0, out, {})
    assert list(ref["digests"]) == ["band_sums.json"]

    problems, identical, certs, values = reference.compare(ref, 0, out, "band")
    assert (problems, identical, certs) == ([], 1, (2, 0))
    assert values["0.0,1.0,1.0,1048576.ratio"] == 1.2

    # a change far below the rounding tolerance passes but is not byte-identical
    _band_artifact(out, ratio=1.2 * (1 + 1e-14))
    problems, identical, _, _ = reference.compare(ref, 0, out, "band")
    assert problems == [] and identical == 0

    _band_artifact(out, ratio=1.2 * (1 + 1e-6))
    problems, _, _, _ = reference.compare(ref, 0, out, "band")
    assert any(p.startswith("value ") and ".ratio" in p for p in problems)

    _band_artifact(out, warning=True)
    problems, _, certs, _ = reference.compare(ref, 0, out, "band")
    assert any(p.startswith("verdict ") and "tail_warning" in p for p in problems)
    assert certs == (2, 2)

    _band_artifact(out)
    problems, _, _, _ = reference.compare(ref, 3, out, "band")
    assert problems == ["exit code 3, recorded 0"]


def test_reference_check_flags_a_flipped_probe_verdict(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    header = "a,b,t,omega,m,xi,label,re_direct,im_direct,re_contour,im_contour,ratio,converged\n"
    row = "0,1,0.5,256,0.0625,0.79,near,1e-16,2e-16,3e-17,4e-17,1e-13,{}\n"
    summary = {"probe_count": 1, "all_converged": True, "failures": [], "arc": None,
               "agreement": {"compared": 1, "all_agree": True, "max_gap": 1e-16}}
    (out / "probes.csv").write_text(header + row.format("true"))
    (out / "oscillatory_summary.json").write_text(json.dumps(summary))
    key = "0,1,0.5,256,0.0625,0.79"
    context = {"probe_tols": {key: {"direct": 1e-14, "contour": 1e-14}}}
    ref = reference.record("osc", 0, out, context)
    assert reference.compare(ref, 0, out, "osc")[0] == []

    (out / "probes.csv").write_text(header + row.format("false"))
    problems, _, certs, _ = reference.compare(ref, 0, out, "osc")
    assert problems == [f"verdict {key}:converged: False, recorded True"]
    assert certs == (2, 1)


def _snapshot(package):
    owners = [package] + [getattr(package, layer) for layer in tracer.LAYERS]
    classes = [obj for owner in owners[1:] for obj in vars(owner).values()
               if isinstance(obj, type) and obj.__module__ == owner.__name__]
    return {(id(o), k): v for o in owners + classes for k, v in vars(o).items()}


def test_every_patched_attribute_is_restored(tmp_path):
    import nlsa_lab
    import nlsa_lab.cli

    config = tmp_path / "solve.json"
    config.write_text(json.dumps({
        "equation": {"preset": "mkdv"}, "grid": {"num_points": 128, "length": 60.0},
        "time": {"horizon": 0.01, "nodes": 4},
        "initial_data": {"kind": "soliton", "name": "mkdv", "amplitude": 1.0},
    }))
    before = _snapshot(nlsa_lab)
    original_iterate = nlsa_lab.picard.picard_iterate

    t = tracer.Tracer()
    patched = t.install(nlsa_lab)
    try:
        assert patched > 100
        assert nlsa_lab.cli.picard_iterate is not original_iterate
        assert nlsa_lab.picard_iterate is nlsa_lab.cli.picard_iterate
        code = nlsa_lab.cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    finally:
        left = t.uninstall()
    assert code == 0
    assert left == []
    after = _snapshot(nlsa_lab)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    table = tracer.summarize(t.spans)
    assert table["cli.main"]["count"] == 1
    assert table["picard.picard_iterate"]["extra"]["iterations"] >= 1
    assert sum(e["self_s"] for e in table.values()) == pytest.approx(
        table["cli.main"]["total_s"], rel=1e-9)


def test_layer_metrics_cover_every_declared_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = run.Iteration(wall=2.0, setup=0.5)
    traced = run.Iteration(wall=3.0, setup=0.5, certs_issued=4, certs_failed=1)
    metrics = run.layer_metrics({}, plain, traced, None)
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared["per_layer"])
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert metrics["cert_fail_frac"][0] == 0.25
