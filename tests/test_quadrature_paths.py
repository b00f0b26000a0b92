"""Both quadrature paths pinned bit for bit, and the arc summary.

The pinned dicts are the returns of osc_integral_direct and
osc_integral_contour, re-recorded when the profile's quintic B-spline gave
way to an 8-knot Lagrange interpolant on the same knots (x86-64, Python
3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31).  The interpolant is plain numpy
arithmetic, so the pins depend on pocketfft (the profile table),
for the far direct pins on LAPACK's batched zgesv and for the contour pins
on BLAS's dgemm (the same bits at 1, 2 and 4 threads), and another numpy may
move them.  Floats are compared through float.hex, so a
one-ulp change in a value, a floor or a step-halving error fails.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from nlsa_lab import oscillatory
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
# the same four at m = 0, where every kernel's factor (1 + z^2)^(-m) is
# exactly 1: together they cover the GL line, Levin and both arcs
PROBES.update({f"{name}_m0": ((*probe[:4], 0.0, probe[5]), label)
               for name, (probe, label) in list(PROBES.items())})

# name -> path -> (re value, im value, err, floor, n_nodes); all converged
PINNED = {
    "near": {
        "direct": ("-0x1.0c50db4939a00p-52", "-0x1.0000000000000p-56",
                   "0x1.947804651e613p-51", "0x1.727a26d9906ecp-44", 14144),
        "contour": ("-0x1.1c40000000000p-59", "-0x1.f800000000000p-64",
                    "0x1.1d572533f5cb6p-58", "0x1.bca1271453ecap-45", 15616),
    },
    "far_upper": {
        "direct": ("0x1.ac01868527af4p-57", "0x1.2337900cb5d44p-56",
                   "0x1.c7a68bb78ff2ap-56", "0x1.52f743030be5dp-44", 64176),
        "contour": ("-0x1.7932cc2d52d68p-67", "-0x1.c8b315fc49709p-62",
                    "0x1.1549f369a7a9bp-62", "0x1.bc9d7a2c480acp-45", 2405568),
    },
    "far_lower": {
        "direct": ("-0x1.6b80b0f85f086p-57", "-0x1.239b1d31c8b91p-56",
                   "0x1.8820248f4b6a0p-56", "0x1.52f50605532dbp-44", 64176),
        "contour": ("0x1.e54801de7937ap-63", "0x1.81c8fc0455606p-62",
                    "0x1.2a225e4d14efdp-63", "0x1.bc9d7a2c480abp-45", 2405568),
    },
    "intermediate": {
        "direct": ("-0x1.fdfb8109fbcf2p-3", "-0x1.a6caeb6997875p-2",
                   "0x1.e61f04ebc5be2p-52", "0x1.3df5e0e9b3144p-44", 20288),
    },
    "near_m0": {
        "direct": ("-0x1.96e9cf7512c00p-52", "-0x1.0000000000000p-56",
                   "0x1.4fa416357762fp-51", "0x1.7a117d09b41f1p-44", 14144),
        "contour": ("-0x1.6a3f000000000p-55", "-0x1.ed80000000000p-62",
                    "0x1.2f8ab14881b6dp-55", "0x1.ccf98b9759a4ap-45", 15616),
    },
    "far_upper_m0": {
        "direct": ("0x1.2224e62c2243dp-55", "0x1.83c8afea8acc7p-55",
                   "0x1.352e5ca0232f3p-54", "0x1.1506014e5cbb0p-43", 64176),
        "contour": ("-0x1.a5bb37a33dfc6p-63", "0x1.0660a10f538b7p-62",
                    "0x1.832147f6c1e0dp-60", "0x1.ccf5b5f88fd9fp-45", 2405568),
    },
    "far_lower_m0": {
        "direct": ("-0x1.fdfa51deec51fp-56", "-0x1.84cc3bded0adap-55",
                   "0x1.05bb8b93839ffp-54", "0x1.1502e9995c7bfp-43", 64176),
        "contour": ("-0x1.9820e160bda68p-61", "-0x1.1c1bd9385a121p-65",
                    "0x1.1e8accc574ba8p-61", "0x1.ccf5b5f88fd9dp-45", 2405568),
    },
    "intermediate_m0": {
        "direct": ("-0x1.086d74ed727a0p-1", "-0x1.b66e6f9264c71p-1",
                   "0x1.19ba5aaaf6c18p-50", "0x1.ac6ad68c14ad6p-44", 20288),
    },
}

PATHS = {"direct": osc_integral_direct, "contour": osc_integral_contour}


@pytest.fixture(scope="module")
def prof():
    return PhiProfile.cached(0.125)


@pytest.mark.parametrize("name", PINNED)
def test_full_output_is_pinned_bit_for_bit(name):
    probe, label = PROBES[name]
    assert classify_xi(probe[5], *probe[:4]) is label
    for path, pinned in PINNED[name].items():
        out = PATHS[path](*probe)
        assert set(out) == {"value", "err", "floor", "converged", "n_nodes"}
        got = (out["value"].real.hex(), out["value"].imag.hex(),
               float(out["err"]).hex(), float(out["floor"]).hex(), out["n_nodes"])
        assert got == pinned, path
        assert out["converged"]
        assert PATHS[path](*probe) == out


def _materialised_line_piece(profile, omega, m, xi, cs, w_lo, w_hi, periods):
    """The line piece as it was before blocks were built from their panels:
    every node and weight materialised up front, then summed in blocks of
    2^20 nodes."""
    edges = oscillatory._line_edges(w_lo, w_hi, omega, cs, periods)
    edges = oscillatory._subdivide_endpoint_panels(edges, periods)
    glx, glw = oscillatory._gl01(oscillatory._GL_LINE)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * glx[None, :]).ravel()
    jac = (widths[:, None] * glw[None, :]).ravel()
    value, l1, cond = 0.0 + 0.0j, 0.0, 0.0
    for lo in range(0, nodes.size, 1 << 20):
        w = nodes[lo:lo + (1 << 20)]
        j = jac[lo:lo + (1 << 20)]
        ph = oscillatory._rel_phase(w, cs)
        fv = profile.eval_real(-omega * w)
        np.multiply(omega, fv, out=fv)
        fv *= np.exp(1j * ph)
        if m != 0.0:
            fv *= (1.0 + (xi + w) ** 2) ** (-m)
        afv = np.abs(fv)
        value += np.sum(fv * j)
        l1 += np.sum(afv * j)
        cond += np.sum(afv * np.abs(ph) * j)
    return value, l1, cond, nodes.size


def test_line_piece_blocks_match_the_materialised_nodes_bit_for_bit(prof):
    # the far-upper direct pieces span more than 2^20 nodes, so several
    # blocks and a short last one are summed
    a, b, t, omega, m, xi = PROBES["far_upper"][0]
    cs = oscillatory._phase_coeffs(a, b, t, xi)
    wmax = prof.v_end / omega
    for periods in (oscillatory._PANEL_PERIODS, oscillatory._PANEL_PERIODS / 2.0):
        got = oscillatory._line_piece(prof, omega, m, xi, cs, -wmax, wmax, periods)
        want = _materialised_line_piece(prof, omega, m, xi, cs, -wmax, wmax, periods)
        assert got.n_nodes == want[3] > 1 << 20
        assert (got.value.real.hex(), got.value.imag.hex(), got.l1.hex(), got.cond.hex()) == (
            want[0].real.hex(), want[0].imag.hex(), want[1].hex(), want[2].hex())


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


def test_arc_summary_leaves_out_empty_regions():
    near = run_probe(0.0, 1.0, 1.0, 2.0 ** 10, 0.125, 0.0)
    assert set(arc_summary([near], 100)) == {"near"}
    middle = probe_stub(*PROBES["intermediate"][0])
    assert arc_summary([middle], 100) == {}
