"""Every certificate fold carries a NaN through to its verdict.

The sweep maxima, the arc-exponent summary and the CLI's agreement gap are
each folded by one numpy reduction.  Python's max/min keep whichever operand
they saw first against a NaN, so a NaN sample read as a clean maximum; here
a NaN fed in on purpose must reach the fold's result, read as a failed
verdict, and be written as null.
"""

import json
import math

import pytest

from nlsa_lab import cli, oscillatory
from nlsa_lab.estimates import _assemble
from nlsa_lab.oscillatory import ArcExponentReport, OscillatoryProbe, RegionLabel, arc_summary

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("nan_pair", [(math.nan, 2.0), (1.0, math.nan)], ids=["lhs", "rhs"])
def test_a_nan_refined_pair_reaches_the_refined_maximum(nan_pair):
    def evaluate(field, scale):
        if scale == 2 and field == 1:
            return [nan_pair]
        return [(1.0, 2.0)]

    res = _assemble("nan-pair", 0, [0, 1], [0, 1], evaluate)
    assert res.max_ratio == 0.5
    assert math.isnan(res.max_ratio_refined)
    assert res.refinement_stable is False
    assert res.discarded == 0


def test_arc_summary_carries_a_nan_report(monkeypatch, tmp_path):
    reports = iter([
        ArcExponentReport(RegionLabel.NEAR, True, 5.0, 1e-12),
        ArcExponentReport(RegionLabel.NEAR, False, math.nan, math.nan),
    ])
    monkeypatch.setattr(oscillatory, "arc_exponent_check",
                        lambda *args, **kwargs: next(reports))
    probes = [
        OscillatoryProbe(0.0, 1.0, 1.0, 1024.0, 0.125, xi, RegionLabel.NEAR,
                         0j, 0j, 0.0, True)
        for xi in (1.0, 2.0)
    ]
    summary = arc_summary(probes, n_theta=10)
    assert list(summary) == ["near"]
    near = summary["near"]
    assert near["count"] == 2 and near["all_hold"] is False
    assert math.isnan(near["min_margin"])
    assert math.isnan(near["max_identity_error"])
    cli.write_json(tmp_path / "arc.json", summary)
    written = json.loads((tmp_path / "arc.json").read_text())["near"]
    assert written["min_margin"] is None and written["max_identity_error"] is None


def test_a_nan_agreement_gap_is_written_as_null(monkeypatch, tmp_path):
    gaps = {1.0: 0.1, 2.0: math.nan}

    def fake_probe(a, b, t, omega, m, xi):
        gap = gaps[xi]
        return OscillatoryProbe(a, b, t, omega, m, xi, RegionLabel.NEAR, 1e-20 + 0j,
                                1e-20 + 0j, 1e-3, True, agreement_gap=gap,
                                agreement_tol=1.0, agrees=gap <= 1.0)

    monkeypatch.setattr(cli, "run_probe", fake_probe)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "probes": [{"a": 0.0, "b": 1.0, "t": 1.0, "omega": 1024.0, "m": 0.125, "xi": xi}
                   for xi in gaps],
        "arc_samples": 0,
    }))
    out = tmp_path / "out"
    assert cli.main(["verify-oscillatory", "--config", str(config), "--out", str(out)]) == 3
    text = (out / "oscillatory_summary.json").read_text()
    assert '"max_gap": null' in text
    agreement = json.loads(text)["agreement"]
    assert agreement["compared"] == 2 and agreement["all_agree"] is False
