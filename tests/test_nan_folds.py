"""Every certificate fold carries a NaN through to its verdict.

The sweep maxima, the sup-embedding sweep's per-horizon worst ratios, the
arc-exponent summary, the CLI's agreement gap, and the weighted sup and
max/min spreads of a solve's norm histories are each folded by one numpy
reduction.  Python's max/min keep whichever operand they saw first against a
NaN, so a NaN sample read as a clean maximum; here a NaN fed in on purpose
must reach the fold's result, read as a failed verdict, and be written as
null.
"""

import json
import math

import numpy as np
import pytest

from nlsa_lab import cli, estimates, oscillatory
from nlsa_lab.estimates import _assemble, check_sup_embedding, random_spacetime_packets
from nlsa_lab.norms import SpaceTimeField
from nlsa_lab.oscillatory import ArcExponentReport, OscillatoryProbe, RegionLabel, arc_summary
from nlsa_lab.picard import persistence_report
from nlsa_lab.spectral import EquationParams, Grid

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


@pytest.mark.parametrize("nan_pair", [(math.nan, 2.0), (1.0, math.nan)], ids=["lhs", "rhs"])
def test_a_nan_base_pair_reaches_the_base_maximum(nan_pair):
    res = _assemble("x", 0, [0], [0], lambda f, s: [nan_pair] if s == 1 else [(1.0, 2.0)])
    assert math.isnan(res.max_ratio)
    assert res.max_ratio_refined == 0.5
    assert res.refinement_stable is False
    assert res.discarded == 0
    assert math.isnan(res.to_dict()["drift"])


@pytest.mark.parametrize("bad_pair", [(-1.0, 2.0), (math.inf, 2.0), (1.0, -0.5)],
                         ids=["negative", "infinite", "negative-rhs"])
def test_a_negative_or_infinite_base_ratio_still_raises(bad_pair):
    with pytest.raises(ValueError, match="negative or infinite"):
        _assemble("x", 0, [0], [0], lambda f, s: [bad_pair] if s == 1 else [(1.0, 2.0)])


def test_a_nan_base_sweep_exits_unstable_naming_it(monkeypatch, tmp_path, capsys):
    def sweep(params, alpha, **kwargs):
        return _assemble("nan-base", kwargs["seed"], [0], [0],
                         lambda f, s: [(math.nan, 2.0)] if s == 1 else [(1.0, 2.0)])

    monkeypatch.setitem(cli._ESTIMATES, "smoothing", sweep)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimates": ["smoothing"]}))
    out = tmp_path / "out"
    assert cli.main(["verify-estimates", "--config", str(config), "--out", str(out)]) == 3
    assert "refinement instability in: nan-base" in capsys.readouterr().err
    summary = json.loads((out / "estimates_summary.json").read_text())["nan-base"]
    assert summary["max_ratio"] is None and summary["drift"] is None
    assert summary["refinement_stable"] is False
    assert (out / "estimates.csv").read_text().splitlines()[1].endswith(",nan")


def test_a_nan_sup_embedding_sample_reaches_the_exponent_fit(monkeypatch, tmp_path):
    lhs_norm = estimates.mixed_norm_t_x
    calls = []

    def first_lhs_nan(u, q, p):
        calls.append(1)
        return math.nan if len(calls) == 1 else lhs_norm(u, q, p)

    monkeypatch.setattr(estimates, "mixed_norm_t_x", first_lhs_nan)
    res = check_sup_embedding(fields=random_spacetime_packets(3, np.random.default_rng(11)))
    assert math.isnan(res.exponent_fit)
    assert math.isnan(res.max_ratio)
    assert res.refinement_stable is False
    cli.write_json(tmp_path / "fit.json", res.to_dict())
    assert json.loads((tmp_path / "fit.json").read_text())["exponent_fit"] is None


def test_a_nan_frame_reaches_the_weighted_sup_and_both_spreads():
    # the NaN frame is the second, so a fold that skips it reads a finite
    # weighted sup and spreads of 2
    grid = Grid(64, 20.0)
    bump = np.exp(-grid.x**2)
    frames = [bump, math.nan * bump, 2.0 * bump, 1.5 * bump]
    report = persistence_report(SpaceTimeField(grid, [0.0, 0.1, 0.2, 0.3], frames),
                                EquationParams(a=1.0, b=1.0))
    assert math.isnan(report.weighted_sup) and math.isnan(report.x_norm)
    assert math.isnan(report.weighted_ratio) and math.isnan(report.h_quarter_ratio)
