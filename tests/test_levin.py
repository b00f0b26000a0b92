"""Levin collocation for far-probe real-axis pieces.

`_levin_piece` solves p' + iP'p = A by Chebyshev collocation on panels sized
to the amplitude, and `_line_pair` uses it only where min |P'| over the piece
is at least K*2.2*omega.  Checked here: a manufactured solution with a known
integral, agreement with Gauss-Legendre on the two pinned far probes, the
exact eligibility minimum, and that ineligible pieces keep the GL bits.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsa_lab import oscillatory
from nlsa_lab.oscillatory import PhiProfile

EPS = oscillatory._EPS

# the two far probes pinned in test_quadrature_paths (upper and lower arc)
FAR_PROBES = {
    "far_upper": (0.0, 1.0, 16.0, 2.0 ** 8, 0.125, 60.0),
    "far_lower": (0.0, -1.0, 16.0, 2.0 ** 8, 0.125, 60.0),
}


@pytest.fixture(scope="module")
def prof():
    return PhiProfile.cached(0.125)


def test_chebyshev_helpers():
    x, d, wts = oscillatory._cheb_lobatto(oscillatory._LEVIN_NODES)
    assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
    # Clenshaw-Curtis integrates polynomials of degree < n exactly
    for k in range(oscillatory._LEVIN_NODES):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert wts @ x ** k == pytest.approx(exact, abs=4 * EPS)
    assert np.abs(d @ np.sin(3 * x) - 3 * np.cos(3 * x)).max() < 1e-11


def _manufactured_profile(omega, cs, q, beta):
    """A profile stand-in whose Levin amplitude (m = 0) is A = p' + iP'p for
    p(w) = q(w) e^{i beta w}: A(w) = omega * eval_real(-omega * w)."""
    dq = np.polyder(q)

    def amp(w):
        rate = oscillatory._rel_phase_rate(w, cs)
        return (np.polyval(dq, w) + 1j * (beta + rate) * np.polyval(q, w)) * np.exp(1j * beta * w)

    return SimpleNamespace(eval_real=lambda v: amp(-np.asarray(v) / omega) / omega)


@settings(max_examples=40, derandomize=True, deadline=None)
# the hardest corner: an amplitude at the band edge 2*omega on the coarse
# pass, with the phase rate at the Levin threshold
@example(log2_omega=8.0, k_ratio=1.0, c2_rel=0.0, c3_rel=0.02, beta_rel=2.0, q=[1.0, 0.5j],
         lo_periods=0.0, span_periods=8.0, periods=oscillatory._LEVIN_PERIODS)
@given(
    log2_omega=st.floats(4.0, 16.0),
    k_ratio=st.floats(1.0, 400.0),
    c2_rel=st.floats(-1.0, 1.0),
    c3_rel=st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 0.01),
    beta_rel=st.floats(-2.0, 2.0),
    q=st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
               min_size=1, max_size=6),
    lo_periods=st.floats(-50.0, 50.0),
    span_periods=st.floats(0.3, 80.0),
    periods=st.sampled_from([oscillatory._LEVIN_PERIODS, oscillatory._LEVIN_PERIODS / 2.0]),
)
def test_manufactured_solution_is_met_within_the_piece_floor(
        log2_omega, k_ratio, c2_rel, c3_rel, beta_rel, q, lo_periods, span_periods, periods):
    # p(w) = q(w) e^{i beta w} with |beta| <= 2*omega, the amplitude's band
    # edge, on a phase whose rate stays at or above K*2.2*omega
    omega = 2.0 ** log2_omega
    period = np.pi / omega
    w_lo = lo_periods * period
    w_hi = w_lo + span_periods * period
    # |2 c2 w| and |3 c3 w^2| stay below c1/8 on the piece, so P' >= 3 c1/4,
    # which is k_ratio times the Levin threshold
    c1 = 4.0 / 3.0 * k_ratio * oscillatory._LEVIN_MIN_RATE * 2.2 * omega
    reach = max(abs(w_lo), abs(w_hi))
    cs = (c1, c2_rel * c1 / (16.0 * reach), c3_rel * c1 / (24.0 * reach * reach))
    assert oscillatory._min_rate(cs, w_lo, w_hi) >= oscillatory._LEVIN_MIN_RATE * 2.2 * omega
    q = np.array(q, dtype=np.complex128)
    beta = beta_rel * omega

    got = oscillatory._levin_piece(_manufactured_profile(omega, cs, q, beta), omega, 0.0, 0.0,
                                   cs, w_lo, w_hi, periods)

    def term(w):
        return np.polyval(q, w) * np.exp(1j * (beta * w + oscillatory._rel_phase(w, cs)))

    exact = term(w_hi) - term(w_lo)
    floor = EPS * got.l1 * math.sqrt(got.n_nodes) + oscillatory._COND_MULT * EPS * got.cond
    assert abs(got.value - exact) <= floor


def test_min_rate_finds_the_vertex_inside_the_piece():
    # P'(w) = 5 + 2*(-3)*w + 3*w^2 has its vertex at w = 1 with P'(1) = 2
    cs = (5.0, -3.0, 1.0)
    assert oscillatory._min_rate(cs, -1.0, 4.0) == 2.0
    # vertex outside the piece: the nearer end decides
    assert oscillatory._min_rate(cs, 2.0, 4.0) == 5.0
    assert oscillatory._min_rate(cs, -2.0, 0.0) == 5.0
    # a vertex below zero puts two stationary points inside
    assert oscillatory._min_rate((-1.0, -3.0, 1.0), -1.0, 4.0) == 0.0
    # one root between the ends
    assert oscillatory._min_rate((-1.0, 0.0, 1.0), 0.0, 1.0) == 0.0


def test_piece_below_the_levin_rate_keeps_the_gauss_legendre_bits(prof):
    # the pinned intermediate probe: min |P'| / (2.2 omega) is about 0.12
    a, b, t, omega, m, xi = 0.0, 1.0, 1.0, 2.0 ** 10, 0.125, math.sqrt(2.0 ** 10 / 3.0)
    cs = oscillatory._phase_coeffs(a, b, t, xi)
    wmax = prof.v_end / omega
    assert oscillatory._min_rate(cs, -wmax, wmax) < oscillatory._LEVIN_MIN_RATE * 2.2 * omega
    pair = oscillatory._line_pair(prof, omega, m, xi, cs, -wmax, wmax)
    for got, periods in zip(pair, (oscillatory._PANEL_PERIODS, oscillatory._PANEL_PERIODS / 2.0)):
        want = oscillatory._line_piece(prof, omega, m, xi, cs, -wmax, wmax, periods)
        assert got.n_nodes == want.n_nodes
        assert (got.value.real.hex(), got.value.imag.hex(), got.l1.hex(), got.cond.hex()) == (
            want.value.real.hex(), want.value.imag.hex(), want.l1.hex(), want.cond.hex())


@pytest.mark.parametrize("name", FAR_PROBES)
def test_far_probe_levin_agrees_with_gauss_legendre_below_its_floor(prof, name):
    a, b, t, omega, m, xi = FAR_PROBES[name]
    cs = oscillatory._phase_coeffs(a, b, t, xi)
    wmax = prof.v_end / omega
    assert oscillatory._min_rate(cs, -wmax, wmax) >= oscillatory._LEVIN_MIN_RATE * 2.2 * omega
    levin = oscillatory._close([oscillatory._line_pair(prof, omega, m, xi, cs, -wmax, wmax)],
                               prof, a, b, t, xi)
    gl = oscillatory._close([oscillatory._gl_pair(prof, omega, m, xi, cs, -wmax, wmax)],
                            prof, a, b, t, xi)
    assert levin["converged"] and gl["converged"]
    assert levin["n_nodes"] * 20 < gl["n_nodes"]
    assert abs(levin["value"] - gl["value"]) <= gl["floor"]
    assert levin["floor"] <= gl["floor"]
