"""Both quadrature paths pinned bit for bit, and the arc summary.

The pinned dicts are the full_output of osc_integral_direct and
osc_integral_contour, recorded before the two paths shared one closing step
(x86-64, numpy 2.4, scipy 1.17).  Floats are compared through float.hex, so
a one-ulp change in a value, a floor or a step-halving error fails.
"""

import math
from types import SimpleNamespace

import pytest

from nlsa_lab.oscillatory import (
    PhiProfile,
    RegionLabel,
    arc_exponent_check,
    arc_summary,
    build_probe_grid,
    classify_xi,
    osc_integral_contour,
    osc_integral_direct,
    run_probe,
)

# (a, b, t, omega, m, xi): one near probe, a far probe on each arc
# orientation (upper arc for b > 0, lower for b < 0; both evaluate arc
# panels and real-axis tails), and one intermediate probe
PROBES = {
    "near": ((0.0, 1.0, 1.0, 2.0 ** 10, 0.125, 0.0), RegionLabel.NEAR),
    "far_upper": ((0.0, 1.0, 16.0, 2.0 ** 8, 0.125, 60.0), RegionLabel.FAR),
    "far_lower": ((0.0, -1.0, 16.0, 2.0 ** 8, 0.125, 60.0), RegionLabel.FAR),
    "intermediate": (
        (0.0, 1.0, 1.0, 2.0 ** 10, 0.125, math.sqrt(2.0 ** 10 / 3.0)),
        RegionLabel.INTERMEDIATE,
    ),
}

# name -> path -> (re value, im value, err, floor, n_nodes); all converged
PINNED = {
    "near": {
        "direct": ("-0x1.01ffd52103200p-52", "0x1.0000000000000p-56",
                   "0x1.9eaeb3dbd3ec7p-51", "0x1.75bd109db5320p-44", 14144),
        "contour": ("0x1.31a6000000000p-56", "0x1.4c00000000000p-64",
                    "0x1.3f38093c45895p-55", "0x1.c326fa9c9d733p-45", 15616),
    },
    "far_upper": {
        "direct": ("0x1.e539cfeaf034fp-53", "-0x1.df8275a97342fp-51",
                   "0x1.944e47bb15111p-50", "0x1.841574912e987p-40", 4172992),
        "contour": ("0x1.374f3546cecf1p-61", "0x1.f9ecbde14bf20p-62",
                    "0x1.23b1e1b559099p-61", "0x1.c3234db4934a1p-45", 2405568),
    },
    "far_lower": {
        "direct": ("0x1.97101915a6136p-52", "0x1.2ae21e23fc879p-51",
                   "0x1.9a58c07ceb682p-51", "0x1.841574912e987p-40", 4172992),
        "contour": ("0x1.f78d512a1510cp-64", "-0x1.26508c165ecffp-62",
                    "0x1.03158a117929fp-62", "0x1.c3234db4934a1p-45", 2405568),
    },
    "intermediate": {
        "direct": ("-0x1.fdfb8109fbcf1p-3", "-0x1.a6caeb6997875p-2",
                   "0x1.ee6fe9f58479ep-52", "0x1.4138caadd7d7ep-44", 20288),
    },
}

PATHS = {"direct": osc_integral_direct, "contour": osc_integral_contour}


@pytest.fixture(scope="module")
def prof():
    return PhiProfile.cached(0.125)


@pytest.mark.parametrize("name", PINNED)
def test_full_output_is_pinned_bit_for_bit(prof, name):
    probe, label = PROBES[name]
    assert classify_xi(probe[5], *probe[:4]) is label
    for path, pinned in PINNED[name].items():
        out = PATHS[path](*probe, prof, full_output=True)
        assert set(out) == {"value", "err", "floor", "converged", "n_nodes"}
        got = (out["value"].real.hex(), out["value"].imag.hex(),
               float(out["err"]).hex(), float(out["floor"]).hex(), out["n_nodes"])
        assert got == pinned, path
        assert out["converged"]
        assert PATHS[path](*probe, prof) == out["value"]


def probe_stub(a, b, t, omega, m, xi):
    """The fields arc_summary reads from an OscillatoryProbe."""
    return SimpleNamespace(a=a, b=b, t=t, omega=omega, xi=xi,
                           label=classify_xi(xi, a, b, t, omega))


def test_arc_summary_is_a_fold_over_arc_exponent_check():
    tuples = build_probe_grid([2.0 ** 8, 2.0 ** 12], [(0.0, 1.0), (1.0, -1.0)], [0.125, 0.5],
                              near_fracs=(0.35, 0.8), far_fracs=(1.5, 2.0),
                              intermediate_fracs=(0.5,))
    probes = [probe_stub(*tp) for tp in tuples]   # two m values repeat every (a, b, t, omega, xi)
    summary = arc_summary(probes, 200)

    expected = {}
    seen = set()
    for p in probes:
        key = (p.a, p.b, p.t, p.omega, p.xi)
        if p.label is RegionLabel.INTERMEDIATE or key in seen:
            continue
        seen.add(key)
        report = arc_exponent_check(*key, n_theta=200)
        assert report.label is p.label
        expected.setdefault(p.label.value, []).append(report)
    assert set(summary) == set(expected) == {"near", "far"}
    for name, reports in expected.items():
        assert summary[name] == {
            "count": len(reports),
            "all_hold": all(r.holds for r in reports),
            "min_margin": min(r.min_margin for r in reports),
            "max_identity_error": max(r.identity_error for r in reports),
        }


def test_arc_summary_leaves_out_empty_regions(prof):
    near = run_probe(0.0, 1.0, 1.0, 2.0 ** 10, 0.125, 0.0, prof)
    assert set(arc_summary([near], 100)) == {"near"}
    middle = probe_stub(*PROBES["intermediate"][0])
    assert arc_summary([middle], 100) == {}
