"""Tests for the oscillatory-integral engine.

Oracle policy: profile values are cross-checked against independent
quadrature of the inversion integral (scipy.integrate.quad and plain
trapezoid sums), contour values against the direct real-axis path, and
counting results against hand-written inequality loops.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from nlsa_lab.oscillatory import (
    ArcExponentReport,
    PhiProfile,
    QuadratureConvergenceError,
    RegionLabel,
    admissible_parameters,
    arc_exponent_check,
    band_sum_report,
    build_probe_grid,
    classify_xi,
    contour_radius,
    decay_bound_check,
    intermediate_count,
    osc_integral_contour,
    osc_integral_direct,
    run_probe,
)
from nlsa_lab.oscillatory import _finish, _gl01, _require_probe
from nlsa_lab.spectral import eta


@pytest.fixture(scope="module")
def prof():
    return PhiProfile.cached(0.125)


def entire(prof, z):
    """The profile's entire extension at z: eval_shifted at x0 = 0 with
    nx_for(max |z|) trapezoid nodes."""
    z = np.asarray(z, dtype=complex)
    return prof.eval_shifted(z, 0.0, prof.nx_for(float(np.abs(z).max())))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_xi(5.0, 0, 1, 1, 1e4) is RegionLabel.NEAR
    assert classify_xi(50.0, 0, 1, 1, 1e4) is RegionLabel.INTERMEDIATE
    assert classify_xi(2000.0, 0, 1, 1, 1e4) is RegionLabel.FAR
    # shifted center: |9 + 1|^2 = 100 <= 100 + 1
    assert classify_xi(9.0, 2, 1, 1, 1e4) is RegionLabel.NEAR


def test_classify_threshold_inclusive():
    # |xi|^2 exactly at the near threshold goes near; just above is
    # intermediate; the far threshold is inclusive on the intermediate side
    assert classify_xi(10.0, 0, 1, 1, 1e4) is RegionLabel.NEAR
    assert classify_xi(10.0000001, 0, 1, 1, 1e4) is RegionLabel.INTERMEDIATE
    assert classify_xi(1000.0, 0, 1, 1, 1e4) is RegionLabel.INTERMEDIATE
    assert classify_xi(1000.0001, 0, 1, 1, 1e4) is RegionLabel.FAR


def test_classify_invalid_parameters():
    with pytest.raises(ValueError):
        classify_xi(1.0, 0, 0, 1, 1e4)
    with pytest.raises(ValueError):
        classify_xi(1.0, 0, 1, 0.0, 1e4)
    with pytest.raises(ValueError):
        classify_xi(1.0, 0, 1, -2.0, 1e4)
    with pytest.raises(ValueError):
        classify_xi(1.0, 0, 1, 1.0, 1.0)


def test_classify_monotone_in_radius():
    rng = np.random.default_rng(7)
    order = {RegionLabel.NEAR: 0, RegionLabel.INTERMEDIATE: 1, RegionLabel.FAR: 2}
    for _ in range(20):
        a = rng.uniform(-2, 2)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        t = rng.uniform(0.05, 2.0)
        omega = 2.0 ** rng.uniform(2, 14)
        half = a / (2 * b)
        radii = np.sort(rng.uniform(0, 40 * math.sqrt(omega / (abs(b) * t)), 200))
        labels = [order[classify_xi(-half + r, a, b, t, omega)] for r in radii]
        assert all(l2 >= l1 for l1, l2 in zip(labels, labels[1:]))


def test_admissible_parameters_boundary():
    assert admissible_parameters(2, 1, 1.0, 1e4)      # equality holds
    assert not admissible_parameters(2, 1, 1.01, 1e4)
    with pytest.raises(ValueError):
        osc_integral_direct(2, 1, 1.01, 1e4, 0.0, 0.0)


def test_contour_radius_by_region():
    assert contour_radius(RegionLabel.NEAR, 1, 1, 1e4) == 0.1
    assert contour_radius(RegionLabel.FAR, 1, 0.5, 2.0 ** 8) == pytest.approx(
        math.sqrt(2.0 ** 9)
    )


# ---------------------------------------------------------------------------
# profile construction and evaluation
# ---------------------------------------------------------------------------

def test_transform_support_and_mass(prof):
    xs = np.linspace(-1, 3, 4001)
    vals = prof._transform_values(xs)
    assert np.all(vals[(xs < 0.5) | (xs > 2.0)] == 0.0)
    oracle, err = quad(lambda x: x ** prof.m * eta(np.array([x]))[0], 0.5, 2.0,
                       epsabs=1e-12, epsrel=1e-12, limit=400)
    assert err < 1e-10
    assert prof.mass == pytest.approx(oracle, rel=1e-9)
    # value at the origin is the transform mass over 2 pi
    assert prof.value_at_zero == pytest.approx(prof.mass / (2 * np.pi), abs=1e-14)
    assert prof.eval_real(np.array([0.0]))[0] == pytest.approx(
        prof.mass / (2 * np.pi), abs=1e-12
    )


def test_real_axis_two_evaluation_paths_agree(prof):
    # interpolated table (built from a pruned inverse DFT) vs direct quadrature of
    # the inversion integral
    v = np.concatenate([np.linspace(0, 30, 301), np.geomspace(30, 800, 60)])
    v = np.concatenate([-v[::-1], v])
    table = prof.eval_real(v)
    direct = entire(prof, v)
    assert np.abs(table - direct).max() < 1e-8


def test_complex_conjugation_symmetry(prof):
    rng = np.random.default_rng(3)
    z = rng.uniform(-40, 40, 25) + 1j * rng.uniform(-20, 20, 25)
    left = entire(prof, np.conj(z))
    right = np.conj(entire(prof, -z))
    assert np.abs(left - right).max() < 1e-14


def test_spline_validation_is_tight(prof):
    assert prof.err_max < 1e-13
    assert prof.err_l1 < 1e-12
    assert prof.tail_l1 < 1e-12


def test_shifted_evaluation_identity(prof):
    rng = np.random.default_rng(11)
    w = rng.uniform(-50, 50, 16) + 1j * rng.uniform(0, 30, 16)
    plain = entire(prof, w)
    for x0 in (0.5, 2.0):
        shifted = prof.eval_shifted(w, x0, 2048) * np.exp(1j * w * x0)
        assert np.abs(plain - shifted).max() < 1e-12 * prof.mass


def test_shifted_resolution_rule(prof):
    # the automatic node count must already be converged at arc-scale
    # arguments (doubling the nodes moves nothing above rounding)
    om_eps = 7000.0
    theta = np.linspace(0.0, np.pi, 41)
    w = -om_eps * np.exp(-1j * theta)
    w = w[w.imag * 0 == 0]
    nx = prof.nx_for(om_eps)
    a = prof.eval_shifted(w, 0.5, nx)
    b = prof.eval_shifted(w, 0.5, 2 * nx)
    assert np.abs(a - b).max() < 1e-14 * prof.mass


def test_integration_by_parts_envelope(prof):
    # |R(u+iv)| <= ibp_mass(|v|) / (2 pi u^8) away from the imaginary axis
    rng = np.random.default_rng(5)
    u = rng.uniform(50, 4000, 40) * rng.choice([-1, 1], 40)
    v = rng.uniform(0.0, 60.0, 40)
    w = u + 1j * v
    r = prof.eval_shifted(w, 0.5, prof.nx_for(float(np.abs(w).max())))
    bound = prof.ibp_mass(v) / (2 * np.pi * np.abs(u) ** 8)
    # quadrature values bottom out at the float64 noise floor, so the
    # comparison carries the same 1e-16 * mass allowance the engine's
    # panel-skip logic uses
    assert np.all(np.abs(r) <= bound + 1e-16 * prof.mass)


def test_profile_rejects_bad_exponent():
    with pytest.raises(ValueError):
        PhiProfile(1.0)


# ---------------------------------------------------------------------------
# direct integral
# ---------------------------------------------------------------------------

def test_direct_small_time_vanishes():
    # m = 0, t -> 0+: the integral degenerates to the total profile mass,
    # which vanishes because the transform has no zero-frequency content
    val = osc_integral_direct(0.0, 1.0, 1e-8, 2.0 ** 8, 0.0, 0.3)
    assert abs(val["value"]) < 1e-10


def test_refinement_guard_raises():
    with pytest.raises(QuadratureConvergenceError):
        _finish(1.0 + 0j, 1.5 + 0j, 1.0, 10, 0.0, 1.0 + 0j, 0)


# ---------------------------------------------------------------------------
# contour path vs direct path
# ---------------------------------------------------------------------------

def test_near_probe_agreement_spec_points():
    # the two canonical near probes; values sit at the conditioning floor,
    # agreement is floor-backed
    for omega, xi in ((2.0 ** 10, 0.0), (2.0 ** 14, 1.0)):
        pr = run_probe(0.0, 1.0, 1.0, omega, 0.125, xi)
        assert pr.label is RegionLabel.NEAR
        assert pr.agrees and pr.converged


def test_near_probe_agreement_shifted_center():
    pr = run_probe(1.0, -1.0, 0.05, 2.0 ** 10, 0.125, 0.5)
    assert pr.label is RegionLabel.NEAR
    assert pr.agrees and pr.converged


def test_far_probe_agreement_both_signs():
    t, omega = 0.5, 2.0 ** 8
    xi = 12.0 * math.sqrt(omega / t)
    for b in (1.0, -1.0):
        pr = run_probe(0.0, b, t, omega, 0.125, xi)
        assert pr.label is RegionLabel.FAR
        assert pr.agrees and pr.converged


def test_intermediate_has_substance_and_no_contour():
    omega, t = 2.0 ** 10, 1.0
    xi = math.sqrt(omega / (3.0 * t))   # phase rate sits inside the band
    assert classify_xi(xi, 0.0, 1.0, t, omega) is RegionLabel.INTERMEDIATE
    val = osc_integral_direct(0.0, 1.0, t, omega, 0.125, xi)
    assert abs(val["value"]) > 0.1
    with pytest.raises(ValueError):
        osc_integral_contour(0.0, 1.0, t, omega, 0.125, xi)


def test_arc_refuses_radius_whose_eighth_power_overflows():
    # omega * eps ~ 1.4e45: the panel bound's u_min ** 8 would overflow float64
    a, b, t, omega = 0.0, 1.0, 0.5, 1e30
    xi = 15.0 * math.sqrt(omega / t)
    assert classify_xi(xi, a, b, t, omega) is RegionLabel.FAR
    with pytest.raises(ValueError, match=r"omega \* eps .* overflows"):
        osc_integral_contour(a, b, t, omega, 0.0, xi)


def _semicircle_crosses_the_rays(xi, eps):
    """Whether |z - xi| = eps meets {Re z = 0, |Im z| >= 1}."""
    return abs(xi) < eps and eps * eps - xi * xi >= 1.0


def test_admitted_probes_keep_the_semicircle_off_the_rays_property():
    # osc_integral_contour deforms onto the semicircle without a check of its
    # own: the gate's rule omega/(|b| t) >= max(1, 1e4 (a/(2b))^2) is what keeps
    # it off the branch cuts.  This (a, b, t, omega, xi) breaks only that rule,
    # and would be a far probe of radius 2 whose arc crosses: 4 - 1.5^2 >= 1.
    crossing = (400.0, 1.0, 1.0, 4.0, 1.5)
    assert classify_xi(crossing[4], *crossing[:4]) is RegionLabel.FAR
    assert _semicircle_crosses_the_rays(1.5, contour_radius(RegionLabel.FAR, 1.0, 1.0, 4.0))
    with pytest.raises(ValueError, match="violate"):
        _require_probe(*crossing)

    # gate inputs with |a/(2b)| / sqrt(B), B = omega/(|b| t), log-uniform over
    # [1e-4, 1e3] (admissible up to 1e-2) and |xi + a/(2b)|^2 - (a/(2b))^2 = f B,
    # f log-uniform over [1e-4, 1e4], on either side of -a/(2b)
    rng = np.random.default_rng(20261019)
    probes = [crossing]
    for _ in range(3000):
        b = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
        t = 10.0 ** rng.uniform(-3.0, 0.0)
        omega = 2.0 ** rng.uniform(1.0, 30.0)
        base = omega / (abs(b) * t)
        half = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 3.0) * math.sqrt(base)
        r = math.sqrt(half * half + 10.0 ** rng.uniform(-4.0, 4.0) * base)
        probes.append((2.0 * b * half, b, t, omega, -half + rng.choice((-1.0, 1.0)) * r))

    admitted = {RegionLabel.NEAR: 0, RegionLabel.FAR: 0}
    for a, b, t, omega, xi in probes:
        try:
            label = _require_probe(a, b, t, omega, xi)
        except ValueError:
            continue
        if label is RegionLabel.INTERMEDIATE:
            continue
        admitted[label] += 1
        eps = contour_radius(label, b, t, omega)
        assert not _semicircle_crosses_the_rays(xi, eps), (a, b, t, omega, xi)
    assert min(admitted.values()) >= 100, admitted


# ---------------------------------------------------------------------------
# arc-exponent inequalities
# ---------------------------------------------------------------------------

def test_arc_exponent_near_case():
    rep = arc_exponent_check(0.0, 1.0, 1.0, 1e4, 5.0)
    assert isinstance(rep, ArcExponentReport)
    assert rep.label is RegionLabel.NEAR
    assert rep.holds and rep.min_margin > 0.0
    assert rep.identity_error < 1e-9


def test_arc_exponent_far_case():
    rep = arc_exponent_check(0.0, 1.0, 1.0, 1e4, 2000.0)
    assert rep.label is RegionLabel.FAR
    assert rep.holds and rep.min_margin > 0.0
    assert rep.identity_error < 1e-9


def test_arc_exponent_shifted_center():
    rep = arc_exponent_check(2.0, 1.0, 1.0, 1e4, 9.0)
    assert rep.label is RegionLabel.NEAR
    assert rep.holds


def test_arc_exponent_rejects_intermediate():
    with pytest.raises(ValueError):
        arc_exponent_check(0.0, 1.0, 1.0, 1e4, 50.0)


# ---------------------------------------------------------------------------
# dyadic band sums
# ---------------------------------------------------------------------------

def test_band_sum_small_time():
    rep = band_sum_report(0.0, 1.0, 1e-12, 0.125, num_points=2 ** 18)
    assert np.isfinite(rep.sup)
    assert 0.0 < rep.ratio < 10.0
    assert not rep.tail_warning


def test_band_sum_bounded_and_refinement_stable():
    base = band_sum_report(0.0, 1.0, 1.0, 0.125, num_points=2 ** 19)
    fine = band_sum_report(0.0, 1.0, 1.0, 0.125, num_points=2 ** 20)
    assert np.isfinite(base.sup) and np.isfinite(fine.sup)
    assert abs(fine.ratio - base.ratio) <= 0.2 * base.ratio
    assert fine.n_threshold <= fine.n_hi
    assert not fine.tail_warning


def test_band_sum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        band_sum_report(0.0, 0.0, 1.0, 0.125)
    with pytest.raises(ValueError):
        band_sum_report(0.0, 1.0, -1.0, 0.125)


def test_intermediate_count_matches_direct_inequality():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.uniform(-2, 2)
        b = rng.choice([-1.0, 1.0])
        t = rng.uniform(0.3, 3.0)
        xi = rng.uniform(-60, 60)
        half = a / (2 * b)
        base_q = ((xi + half) ** 2 - half ** 2) * abs(b) * t
        direct = 0
        for n in range(1, 80):
            lo = 2.0 ** n / (abs(b) * t) / 100.0 + half ** 2
            hi = 100.0 * 2.0 ** n / (abs(b) * t) + half ** 2
            if lo < (xi + half) ** 2 <= hi:
                direct += 1
        assert intermediate_count(xi, a, b, t) == direct
        if base_q <= 0:
            assert direct == 0


# ---------------------------------------------------------------------------
# auxiliary bounds
# ---------------------------------------------------------------------------

# The checks below are issued by no command: the sin-kernel gap bound and
# the profile's off-axis growth, each with its fitted constant.

def sin_kernel_gap_integral(alpha: float, beta: float) -> float:
    """integral_0^pi (e^{beta sin th} - e^{alpha sin th}) / sin th dth
    for alpha < beta < 0 (the integrand extends continuously by beta-alpha)."""
    if not alpha < beta < 0:
        raise ValueError("requires alpha < beta < 0")
    glx, glw = _gl01(512)
    theta = np.pi * glx
    s = np.sin(theta)
    vals = (np.exp(beta * s) - np.exp(alpha * s)) / s
    return float(np.pi * np.sum(vals * glw))


def sin_kernel_gap_bound(alpha: float, beta: float) -> float:
    """Closed-form comparison quantity for the sin-kernel gap integral."""
    if not alpha < beta < 0:
        raise ValueError("requires alpha < beta < 0")
    r = alpha / beta
    return (np.pi * r - 1.0) + 1.0 + (1.0 / (np.pi * r)) * math.exp(-np.pi * r)


def sin_kernel_bound_ratios(pairs) -> np.ndarray:
    """Ratio integral/bound for each (alpha, beta) pair."""
    return np.array([
        sin_kernel_gap_integral(al, be) / sin_kernel_gap_bound(al, be)
        for al, be in pairs
    ])


@dataclass
class GrowthBoundReport:
    fitted_constant: float
    fitted_constant_real_axis: float
    ratios: np.ndarray


def growth_bound_check(profile) -> GrowthBoundReport:
    """Off-axis growth of the dilated profile against its envelope bound.

    Samples |omega * phi(omega*zeta)| at omega = 64 with zeta = u - i y,
    y = +-0.3, at 12 geometric offsets u in [0.5, 5], and checks the ratio to
    |e^{2 omega y} - e^{omega y / 2}| / (omega^2 |y| |zeta|^2); on the real
    axis the comparison is against 1 / (omega u^2).  The max ratios are the
    fitted constants.
    """
    omega = 64.0
    offsets = np.geomspace(0.5, 5.0, 12)
    ratios = []
    for y in (0.3, -0.3):
        zeta = offsets - 1j * y
        vals = omega * np.abs(entire(profile, omega * zeta))
        env = (abs(math.exp(2.0 * omega * y) - math.exp(omega * y / 2.0))
               / (omega ** 2 * abs(y) * np.abs(zeta) ** 2))
        ratios.append(vals / env)
    ratios = np.concatenate(ratios)

    vals0 = omega * np.abs(profile.eval_real(omega * offsets))
    env0 = 1.0 / (omega * offsets ** 2)
    return GrowthBoundReport(float(ratios.max()), float((vals0 / env0).max()), ratios)


def test_sin_kernel_integral_against_quad_oracle():
    alpha, beta = -8.0, -2.0
    oracle, err = quad(
        lambda th: (math.exp(beta * math.sin(th)) - math.exp(alpha * math.sin(th)))
        / math.sin(th),
        1e-12, np.pi - 1e-12, limit=400,
    )
    assert err < 1e-9
    assert sin_kernel_gap_integral(alpha, beta) == pytest.approx(oracle, rel=1e-9)


def test_sin_kernel_ratios_bounded():
    pairs = [(-5.0, -1.0), (-8.0, -2.0), (-20.0, -3.0), (-40.0, -0.5),
             (-3.0, -2.5), (-100.0, -10.0)]
    ratios = sin_kernel_bound_ratios(pairs)
    assert np.all(ratios > 0)
    assert ratios.max() < 4.0
    with pytest.raises(ValueError):
        sin_kernel_gap_integral(-1.0, -2.0)
    with pytest.raises(ValueError):
        sin_kernel_gap_bound(-1.0, 2.0)


def test_growth_bound_constants(prof):
    rep = growth_bound_check(prof)
    assert np.isfinite(rep.fitted_constant)
    assert np.isfinite(rep.fitted_constant_real_axis)
    assert rep.ratios.max() == pytest.approx(rep.fitted_constant)
    assert np.all(rep.ratios > 0)


# ---------------------------------------------------------------------------
# probe grids and the decay-bound summary
# ---------------------------------------------------------------------------

def test_build_probe_grid_labels_and_admissibility():
    grid = build_probe_grid(
        omegas=[2.0 ** 8, 2.0 ** 12],
        ab_pairs=[(0.0, 1.0), (2.0, -1.0)],
        ms=[0.0, 0.125],
        near_fracs=(0.35,), far_fracs=(1.5,), intermediate_fracs=(1.0 / 3.0,),
    )
    assert len(grid) == 2 * 2 * 2 * 3
    seen = set()
    for (a, b, t, omega, m, xi) in grid:
        assert admissible_parameters(a, b, t, omega)
        seen.add(classify_xi(xi, a, b, t, omega))
    assert seen == {RegionLabel.NEAR, RegionLabel.INTERMEDIATE, RegionLabel.FAR}


def test_decay_bound_check_groups_and_flags():
    grid = build_probe_grid(
        omegas=[2.0 ** 8],
        ab_pairs=[(0.0, 1.0)],
        ms=[0.125],
        near_fracs=(0.5,), far_fracs=(1.5,), intermediate_fracs=(1.0 / 3.0,),
    )
    probes = [run_probe(*g) for g in grid]
    summary = decay_bound_check(probes, ceiling=100.0)
    assert set(summary) == {RegionLabel.NEAR, RegionLabel.INTERMEDIATE,
                            RegionLabel.FAR}
    for s in summary.values():
        assert s.count == 1
        assert np.isfinite(s.fitted_constant)
        assert s.max_ratio >= 0.0
    assert summary[RegionLabel.INTERMEDIATE].ceiling_ok
    # near/far certified constants are conditioning-floor level, hugely
    # below the intermediate one
    assert summary[RegionLabel.NEAR].fitted_constant < 1e-6
    assert summary[RegionLabel.FAR].fitted_constant < 1e-6
