"""Both quadrature paths pinned bit for bit, and the arc summary.

The pinned dicts are the returns of osc_integral_direct and
osc_integral_contour, re-recorded when the table's twiddles and the contour
arcs' trapezoid sums were factored into two small exponential tables each
(x86-64, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31).  The spline is
plain numpy arithmetic, so the pins depend on pocketfft (the profile table),
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
        "direct": ("-0x1.39a5c95411600p-52", "0x1.0000000000000p-56",
                   "0x1.3494ea9443da0p-51", "0x1.72cccc9f136acp-44", 14144),
        "contour": ("-0x1.c9c0000000000p-61", "-0x1.fe00000000000p-64",
                    "0x1.f34d681abb25ep-59", "0x1.bd46729f59e4cp-45", 15616),
    },
    "far_upper": {
        "direct": ("0x1.abdca5e7af7b7p-57", "0x1.23ba3511e9de8p-56",
                   "0x1.c8646659ca5ddp-56", "0x1.5349e8c88ee1ep-44", 64176),
        "contour": ("0x1.42691721e6060p-70", "-0x1.2163aa81f5610p-61",
                    "0x1.1c41872984b14p-62", "0x1.bd42c5b74e435p-45", 2405568),
    },
    "far_lower": {
        "direct": ("-0x1.6b80b0f85f086p-57", "-0x1.239b1d31c8b91p-56",
                   "0x1.8881f53bbbb75p-56", "0x1.5347abcad629cp-44", 64176),
        "contour": ("0x1.27ae1a4eada5ep-62", "0x1.cc31385273f18p-62",
                    "0x1.79d9faff65669p-63", "0x1.bd42c5b74e434p-45", 2405568),
    },
    "intermediate": {
        "direct": ("-0x1.fdfb8109fbcf0p-3", "-0x1.a6caeb6997876p-2",
                   "0x1.12ce6c9dbcc1cp-51", "0x1.3e4886af36106p-44", 20288),
    },
    "near_m0": {
        "direct": ("-0x1.46a0c40488a00p-52", "0x1.0000000000000p-56",
                   "0x1.2bcbed2c0d928p-51", "0x1.7a61b12b04748p-44", 14144),
        "contour": ("-0x1.5e6e000000000p-55", "-0x1.ed80000000000p-62",
                    "0x1.1bf32221aac20p-55", "0x1.cd99f3d9fa4fap-45", 15616),
    },
    "far_upper_m0": {
        "direct": ("0x1.22648c55f687ep-55", "0x1.83c1fe8773c86p-55",
                   "0x1.351bf1959a49fp-54", "0x1.152e1b5f04e5cp-43", 64176),
        "contour": ("-0x1.e4e4c765c098ap-63", "0x1.5d4ea61590b32p-62",
                    "0x1.af710fd5fcff6p-60", "0x1.cd961e3b31431p-45", 2405568),
    },
    "far_lower_m0": {
        "direct": ("-0x1.fdfa51deec51fp-56", "-0x1.84cc3bded0adap-55",
                   "0x1.05f50bfc1aebdp-54", "0x1.152b03aa04a6bp-43", 64176),
        "contour": ("-0x1.afc7bf7aae38bp-61", "-0x1.0cf414ed83f34p-66",
                    "0x1.31e7f78c460b5p-61", "0x1.cd961e3b3142fp-45", 2405568),
    },
    "intermediate_m0": {
        "direct": ("-0x1.086d74ed727a0p-1", "-0x1.b66e6f9264c70p-1",
                   "0x1.af43a55f0f450p-51", "0x1.acbb0aad6502fp-44", 20288),
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
