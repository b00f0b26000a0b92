"""Levin collocation for far-probe real-axis pieces.

`_levin_piece` solves p' + iP'p = A by Chebyshev collocation on panels sized
to the amplitude, and `_line_pair` uses it only where min |P'| over the piece
is at least K*2.2*omega.  `_levin_solve` solves the collocation systems by a
Neumann series and hands a panel that reaches its 28-term cap to LU.
Checked here: a manufactured solution with a known integral, the series
against LU within the rounding bound derived in `_levin_solve`, the LU
fallback and its count, that no panel of the acceptance and benchmark
sweeps falls back, agreement with Gauss-Legendre on the two pinned far
probes, the exact eligibility minimum, and that ineligible pieces keep the
GL bits.
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
# a subnormal amplitude: a series that stopped on squared moduli, which
# underflow to 0, left this piece 1.6e-311 off against a floor of 5.7e-322
@example(log2_omega=4.0, k_ratio=1.0, c2_rel=0.0, c3_rel=1.0, beta_rel=1.0,
         q=[2.225073858507203e-309 + 0j], lo_periods=0.0, span_periods=1.0,
         periods=oscillatory._LEVIN_PERIODS)
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


def _captured_far_systems(monkeypatch):
    """The (dh, rate, amp) systems that the two pinned far probes' direct
    passes hand to _levin_solve, coarse and fine."""
    systems = []
    solve = oscillatory._levin_solve

    def record(dh, rate, amp):
        systems.append((dh, rate, amp))
        return solve(dh, rate, amp)

    with monkeypatch.context() as patch:
        patch.setattr(oscillatory, "_levin_solve", record)
        for probe in FAR_PROBES.values():
            assert oscillatory.osc_integral_direct(*probe)["lu_panels"] == 0
    return systems


def _largest(v):
    """Per panel (column) the largest |re| or |im|: the series' norm."""
    return np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=0)


def test_series_matches_lu_within_the_derived_rounding_bound(monkeypatch):
    systems = _captured_far_systems(monkeypatch)
    assert len(systems) == 2 * len(FAR_PROBES)
    for dh, rate, amp in systems:
        n, n_pan = amp.shape
        got, lu_panels = oscillatory._levin_solve(dh, rate, amp)
        assert lu_panels == 0
        mat = np.empty((n_pan, n, n), dtype=np.complex128)
        mat[:] = dh
        mat[:, np.arange(n), np.arange(n)] += 1j * rate.T
        want = np.linalg.solve(mat, amp.T[..., None])[..., 0].T

        # the bound of _levin_solve with K = n, the cap, and T summed over
        # n terms of the exact recursion
        beta = (np.abs(dh).sum(axis=1)[:, None] / np.abs(rate)).max(axis=0)
        step = np.eye(n) - (1j / rate.T)[:, :, None] * dh
        stacked = np.block([[step.real, -step.imag], [step.imag, step.real]])
        g = np.abs(np.linalg.inv(stacked)).sum(axis=2).max(axis=1)
        term = amp / (1j * rate)
        total = _largest(term)
        for _ in range(1, n):
            term = (1j / rate) * (dh @ term)
            total += _largest(term)
        size = _largest(got)
        bound = (n - 1) * EPS * total + g * EPS * (((n + 2) * beta + 2) * total + beta * size)
        lu_bound = np.linalg.cond(mat, p=np.inf) * n * EPS * _largest(want)
        assert np.all(_largest(got - want) <= bound + lu_bound)


def test_a_panel_whose_rate_is_too_slow_for_the_series_takes_the_lu_and_is_counted():
    x, d, _ = oscillatory._cheb_lobatto(oscillatory._LEVIN_NODES)
    n = x.size
    rng = np.random.default_rng(5)
    amp = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    # |rate| * h is 1 on the first two panels, far below the Levin threshold's
    # 55, so the terms grow through the cap; 1e4 on the third
    rate = np.ones((n, 3)) * np.array([1.0, -1.0, 1e4])
    got, lu_panels = oscillatory._levin_solve(d, rate, amp)
    assert lu_panels == 2
    for j in range(3):
        want = np.linalg.solve(d + 1j * np.diag(rate[:, j]), amp[:, j])
        assert np.abs(got[:, j] - want).max() <= 1e-13 * np.abs(want).max()
    # both passes' counts reach the dict that the quadrature paths return
    coarse = oscillatory._Quad(0j, 1.0, n, 0.0, lu_panels=lu_panels)
    fine = oscillatory._Quad(0j, 1.0, n, 0.0, lu_panels=1)
    stub = SimpleNamespace(err_l1=0.0, tail_l1=0.0)
    assert oscillatory._close([(coarse, fine)], stub, 0.0, 1.0, 1.0, 0.0)["lu_panels"] == 3


def _sweep_probes():
    """Every probe of acceptance criteria 02 and 03 and of the benchmark's
    osc-sweep, once each: criterion 02's grid, criterion 03's dense grid at
    t 0.1 and 1, and the same grid at t 0.5, which holds osc-sweep's."""
    grids = [dict(omegas=[2.0 ** k for k in (8, 10, 12, 14, 16)],
                  ab_pairs=[(0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (1.0, -1.0), (2.0, 1.0),
                            (2.0, -1.0)],
                  ms=(0.0, 1.0 / 16.0, 1.0 / 8.0), t_request=0.5)]
    grids += [dict(omegas=[2.0 ** k for k in (8, 10, 12, 14, 16)],
                   ab_pairs=[(0.0, 1.0), (1.0, -1.0)], ms=(1.0 / 16.0, 1.0 / 8.0),
                   t_request=t, near_fracs=(0.35, 0.8), far_fracs=(1.5,),
                   intermediate_fracs=(0.5, 3.0))
              for t in (0.1, 1.0, 0.5)]
    return sorted({p for grid in grids for p in oscillatory.build_probe_grid(**grid)})


def test_no_panel_of_the_acceptance_or_benchmark_probes_takes_the_lu():
    levin = 0
    for a, b, t, omega, m, xi in _sweep_probes():
        prof = PhiProfile.cached(m)
        cs = oscillatory._phase_coeffs(a, b, t, xi)
        wmax = prof.v_end / omega
        if oscillatory._min_rate(cs, -wmax, wmax) < oscillatory._LEVIN_MIN_RATE * 2.2 * omega:
            continue
        levin += 1
        for piece in oscillatory._line_pair(prof, omega, m, xi, cs, -wmax, wmax):
            assert piece.lu_panels == 0, (a, b, t, omega, m, xi)
    assert levin == 126


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
