"""Tests for the Duhamel fixed-point solver.

Oracle policy: closed-form solitons validated by spectral substitution into
the PDE, a fine-step Runge-Kutta integrator in the interaction picture for
the Duhamel map, and hand-expanded algebra for the pointwise identities.
"""

import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nlsa_lab.norms import SpaceTimeField, _xt_norm, l2_norm, sobolev_norm, xt_norm
from nlsa_lab.picard import (
    BoundaryMassWarning,
    NonContractionError,
    PicardConfig,
    _cubic_terms,
    _median,
    _refined_times,
    conjugate_derivative_difference_split,
    cubic_difference_split,
    derivative_difference_split,
    duhamel_apply,
    nonlinearity_eval,
    persistence_report,
    picard_iterate,
    reduction_preset,
    semigroup_evolve,
    soliton_oracle,
)
from nlsa_lab.spectral import (EquationParams, Grid, GridFunction, _duhamel_integral, _flow_phase,
                               duhamel_flow, spatial_derivative, weight_multiply)


GRID = Grid(1024, 60.0)


def gaussian_packet(grid, amplitude=1.0, width=1.0, freq=0.0, center=0.0):
    envelope = amplitude * np.exp(-(((grid.x - center) / width) ** 2))
    return GridFunction(grid, envelope * np.exp(1j * freq * grid.x))


def random_field(grid, rng, amplitude=1.0, width=2.0):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vals = np.exp(-((grid.x / width) ** 2)) * (
        z[0] * np.cos(rng.uniform(0.5, 3.0) * grid.x)
        + z[1] * np.sin(rng.uniform(0.5, 3.0) * grid.x)
    )
    return GridFunction(grid, amplitude * vals)


def rel_l2(got, want, grid=GRID):
    return l2_norm(GridFunction(grid, got - want)) / l2_norm(GridFunction(grid, want))


# ---------------------------------------------------------------------------
# Configuration and report plumbing.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": 0.0},
        {"horizon": -1.0},
        {"time_nodes": 1},
        {"max_iterations": 0},
        {"xt_tolerance": 0.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PicardConfig(**kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"horizon": math.nan}, "horizon"),
    ({"horizon": math.inf}, "horizon"),
    ({"xt_tolerance": math.nan}, "xt_tolerance"),
    ({"xt_tolerance": math.inf}, "xt_tolerance"),
], ids=["horizon-nan", "horizon-inf", "tolerance-nan", "tolerance-inf"])
def test_config_refuses_non_finite_values_naming_the_field(kwargs, name):
    # a NaN horizon used to surface as a flow overflow "by t = nan", and a NaN
    # tolerance ran every iteration and reported no convergence
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        PicardConfig(**kwargs)


@pytest.mark.parametrize("name", ["time_nodes", "max_iterations"])
@pytest.mark.parametrize("value", [math.nan, 2.5, True, False],
                         ids=["nan", "fraction", "true", "false"])
def test_config_refuses_non_integer_counts_naming_the_field(name, value):
    # times() and the iteration loop take these counts as integers; a bool
    # is an Integral, and True once ran one iteration
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        PicardConfig(**{name: value})


def test_config_time_grid():
    cfg = PicardConfig(horizon=0.5, time_nodes=10)
    times = cfg.times()
    assert times.size == 11
    assert times[0] == 0.0 and times[-1] == 0.5
    assert np.allclose(np.diff(times), 0.05)


def test_config_time_grid_at_the_largest_horizon():
    # the last node, 3 * (horizon / 3), rounds past float64's range inside
    # linspace, which then sets it to the horizon; no warning escapes
    horizon = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times = PicardConfig(horizon=horizon, time_nodes=3).times()
    assert times[-1] == horizon and np.all(np.diff(times) > 0)


# ---------------------------------------------------------------------------
# Free flow.
# ---------------------------------------------------------------------------

def test_semigroup_single_time_is_identity():
    u0 = gaussian_packet(GRID, freq=1.5)
    flow = semigroup_evolve(u0, [0.0], EquationParams(a=1.0, b=1.0))
    assert flow.times.size == 1
    assert np.array_equal(flow.frames[0], u0.values)


@pytest.mark.filterwarnings("ignore::nlsa_lab.picard.BoundaryMassWarning")
def test_semigroup_single_mode_phase():
    # a plane wave legitimately touches the boundary; the warning is correct
    k = 2 * np.pi * 7 / GRID.length
    mode = GridFunction(GRID, np.exp(1j * k * GRID.x))
    params = EquationParams(a=1.5, b=-0.5)
    times = np.linspace(0.0, 0.4, 6)
    flow = semigroup_evolve(mode, times, params)
    for j, t in enumerate(times):
        expected = np.exp(1j * t * (params.a * k**2 + params.b * k**3)) * mode.values
        assert np.max(np.abs(flow.frames[j] - expected)) < 1e-12


def test_semigroup_preserves_l2():
    u0 = gaussian_packet(GRID, amplitude=2.0, freq=3.0)
    flow = semigroup_evolve(u0, np.linspace(0.0, 1.0, 9), EquationParams(a=1.0, b=1.0))
    base = l2_norm(u0)
    for j in range(9):
        assert abs(l2_norm(flow.frame(j)) - base) < 1e-10 * base


def test_semigroup_group_law():
    u0 = gaussian_packet(GRID, freq=2.0)
    params = EquationParams(a=1.0, b=1.0)
    first = semigroup_evolve(u0, np.linspace(0.0, 0.05, 9), params)
    resumed = semigroup_evolve(
        GridFunction(GRID, first.frames[-1]), np.linspace(0.0, 0.05, 9), params
    )
    direct = semigroup_evolve(u0, np.linspace(0.0, 0.1, 9), params)
    assert np.max(np.abs(resumed.frames[-1] - direct.frames[-1])) < 1e-10


def test_picard_iterate_warns_once_about_boundary_mass():
    # semigroup_evolve checks u0 once; the Duhamel map's iterations must not repeat it
    grid = Grid(256, 20.0)
    wide = gaussian_packet(grid, width=6.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        picard_iterate(wide, reduction_preset("mkdv"),
                       PicardConfig(horizon=0.01, time_nodes=4, max_iterations=3))
    assert [w.category for w in caught].count(BoundaryMassWarning) == 1


def test_semigroup_boundary_mass_warning():
    wide = GridFunction(GRID, np.exp(-((GRID.x / 40.0) ** 2)))
    with pytest.warns(BoundaryMassWarning):
        semigroup_evolve(wide, [0.0, 0.1], EquationParams(a=0.0, b=1.0))
    narrow = gaussian_packet(GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryMassWarning)
        semigroup_evolve(narrow, [0.0, 0.1], EquationParams(a=0.0, b=1.0))


def test_boundary_mass_warning_names_the_callers_line():
    # a filter by the caller's module catches the warning from either entry point
    grid = Grid(256, 20.0)
    wide = gaussian_packet(grid, width=6.0)
    params = reduction_preset("mkdv")
    for entry in (
        lambda: semigroup_evolve(wide, [0.0, 0.01], params),
        lambda: picard_iterate(wide, params, PicardConfig(horizon=0.01, time_nodes=4,
                                                           max_iterations=2)),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry()
        (w,) = [w for w in caught if w.category is BoundaryMassWarning]
        assert w.filename == __file__


# ---------------------------------------------------------------------------
# Nonlinearity.
# ---------------------------------------------------------------------------

def test_nonlinearity_zero_field():
    zero = GridFunction(GRID, np.zeros(GRID.num_points))
    out = nonlinearity_eval(zero, reduction_preset("nlsa-default"))
    assert np.all(out.values == 0)


def test_nonlinearity_single_mode():
    k = 2 * np.pi / GRID.length * round(GRID.length / (2 * np.pi))
    u = GridFunction(GRID, np.exp(1j * k * GRID.x))
    params = EquationParams(a=0.0, b=1.0, c=1.0)
    out = nonlinearity_eval(u, params)
    assert np.max(np.abs(out.values - 1j * u.values)) < 1e-12


def test_nonlinearity_full_derivative_route_agrees():
    rng = np.random.default_rng(7)
    params = EquationParams(a=1.0, b=1.0, c=0.7, d=2.0, e=1.0)
    for _ in range(10):
        u = random_field(GRID, rng)
        direct = nonlinearity_eval(u, params)
        collapsed = nonlinearity_eval(u, params, full_derivative_mode=True)
        scale = np.max(np.abs(direct.values)) + 1e-30
        assert np.max(np.abs(direct.values - collapsed.values)) < 1e-10 * scale


def test_nonlinearity_full_derivative_requires_matching_coefficients():
    u = gaussian_packet(GRID)
    with pytest.raises(ValueError, match="d = 2e"):
        nonlinearity_eval(u, EquationParams(a=1.0, b=1.0, d=1.0, e=1.0), full_derivative_mode=True)


# ---------------------------------------------------------------------------
# Duhamel map.
# ---------------------------------------------------------------------------

def test_duhamel_linear_case_returns_free_flow():
    rng = np.random.default_rng(11)
    u0 = gaussian_packet(GRID, freq=1.0)
    params = EquationParams(a=1.0, b=1.0)
    cfg = PicardConfig(horizon=0.3, time_nodes=16)
    times = cfg.times()
    junk = SpaceTimeField(
        GRID, times, np.stack([random_field(GRID, rng).values for _ in times])
    )
    out = duhamel_apply(junk, u0, params)
    free = semigroup_evolve(u0, times, params)
    assert np.max(np.abs(out.frames - free.frames)) < 1e-12


def test_duhamel_zero_everything():
    zero = GridFunction(GRID, np.zeros(GRID.num_points))
    cfg = PicardConfig(horizon=0.1, time_nodes=4)
    field = semigroup_evolve(zero, cfg.times(), reduction_preset("mkdv"))
    out = duhamel_apply(field, zero, reduction_preset("mkdv"))
    assert np.all(out.frames == 0)


def test_duhamel_initial_frame_exact():
    sol = soliton_oracle("mkdv")
    u0 = GridFunction(GRID, sol(GRID.x, 0.0))
    cfg = PicardConfig(horizon=0.05, time_nodes=8)
    field = semigroup_evolve(u0, cfg.times(), sol.params())
    out = duhamel_apply(field, u0, sol.params())
    assert np.array_equal(out.frames[0], u0.values)


def test_duhamel_grid_mismatch():
    cfg = PicardConfig(horizon=0.1, time_nodes=4)
    field = semigroup_evolve(
        gaussian_packet(GRID), cfg.times(), reduction_preset("mkdv")
    )
    other = gaussian_packet(Grid(512, 60.0))
    with pytest.raises(ValueError, match="grids"):
        duhamel_apply(field, other, reduction_preset("mkdv"))


def rk4_interaction_picture(u0, params, horizon, nsteps):
    """Fine-step reference integrator for the mild solution."""
    xi = np.fft.ifftshift(u0.grid.xi)
    pol = params.a * xi**2 + params.b * xi**3

    def slope(t, v_hat):
        u = np.fft.ifft(np.exp(1j * t * pol) * v_hat)
        ux = np.fft.ifft(1j * xi * np.fft.fft(u))
        cubic = (
            1j * params.c * np.abs(u) ** 2 * u
            + params.d * np.abs(u) ** 2 * ux
            + params.e * u**2 * np.conj(ux)
        )
        return -np.exp(-1j * t * pol) * np.fft.fft(cubic)

    v = np.fft.fft(u0.values)
    h = horizon / nsteps
    t = 0.0
    for _ in range(nsteps):
        k1 = slope(t, v)
        k2 = slope(t + h / 2, v + h / 2 * k1)
        k3 = slope(t + h / 2, v + h / 2 * k2)
        k4 = slope(t + h, v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return np.fft.ifft(np.exp(1j * horizon * pol) * v)


def test_one_picard_step_matches_fine_integrator():
    params = reduction_preset("nlsa-default")
    u0 = gaussian_packet(GRID, amplitude=0.1)
    cfg = PicardConfig(horizon=0.01, time_nodes=64)
    seed = semigroup_evolve(u0, cfg.times(), params)
    one_step = duhamel_apply(seed, u0, params)
    reference = rk4_interaction_picture(u0, params, 0.01, 400)
    assert rel_l2(one_step.frames[-1], reference) < 1e-5


# ---------------------------------------------------------------------------
# Picard iteration.
# ---------------------------------------------------------------------------

def test_picard_zero_data():
    zero = GridFunction(GRID, np.zeros(GRID.num_points))
    u, report = picard_iterate(zero, reduction_preset("nlsa-default"), PicardConfig())
    assert report.converged and report.iterations == 1
    assert report.distances == [0.0]
    assert np.all(u.frames == 0)
    assert report.radius == 0.0


def test_picard_linear_one_iteration():
    u0 = gaussian_packet(GRID, freq=2.0)
    params = EquationParams(a=1.0, b=1.0)
    cfg = PicardConfig(horizon=0.3, time_nodes=16)
    u, report = picard_iterate(u0, params, cfg)
    assert report.converged and report.iterations == 1
    free = semigroup_evolve(u0, cfg.times(), params)
    assert np.max(np.abs(u.frames - free.frames)) < 1e-12
    assert report.ratio == 0.0


def test_picard_soliton_contraction_and_accuracy():
    sol = soliton_oracle("mkdv")
    u0 = GridFunction(GRID, sol(GRID.x, 0.0))
    cfg = PicardConfig(horizon=0.05, time_nodes=64)
    u, report = picard_iterate(u0, sol.params(), cfg)
    assert report.converged
    assert report.ratio < 0.5
    # geometric decay: every distance after the first shrinks
    assert all(b < a for a, b in zip(report.distances, report.distances[1:]))
    assert rel_l2(u.frames[-1], sol(GRID.x, cfg.horizon)) < 1e-4
    # fixed-point residual within a burn factor of the tolerance
    final = duhamel_apply(u, u0, sol.params())
    gap = xt_norm(
        SpaceTimeField(GRID, u.times, final.frames - u.frames), sol.params()
    )
    assert gap <= 10 * cfg.xt_tolerance


def test_picard_non_contraction_raises():
    sol = soliton_oracle("mkdv", 3.0)
    u0 = GridFunction(GRID, sol(GRID.x, 0.0))
    with pytest.raises(NonContractionError, match="horizon"):
        picard_iterate(u0, sol.params(), PicardConfig(horizon=2.0, time_nodes=32))


def test_picard_halving_horizon_shrinks_ratio():
    sol = soliton_oracle("mkdv", 1.5)
    u0 = GridFunction(GRID, sol(GRID.x, 0.0))
    ratios = {}
    for horizon in (0.04, 0.02):
        _, report = picard_iterate(
            u0, sol.params(), PicardConfig(horizon=horizon, time_nodes=32, xt_tolerance=1e-12)
        )
        ratios[horizon] = report.ratio
    assert 0 < ratios[0.02] < ratios[0.04] < 1


def test_picard_refinement_stability():
    params = reduction_preset("nlsa-default")
    u0 = GridFunction(GRID, 1.0 / np.cosh(GRID.x) + 0j)
    base_cfg = PicardConfig(horizon=0.02, time_nodes=32)
    u_base, _ = picard_iterate(u0, params, base_cfg)
    base = xt_norm(u_base, params)

    u_fine_t, _ = picard_iterate(u0, params, replace(base_cfg, time_nodes=64))
    assert abs(xt_norm(u_fine_t, params) - base) < 0.01 * base

    fine_grid = Grid(2048, 60.0)
    u0_fine = GridFunction(fine_grid, 1.0 / np.cosh(fine_grid.x) + 0j)
    u_fine_x, _ = picard_iterate(u0_fine, params, base_cfg)
    assert abs(xt_norm(u_fine_x, params) - base) < 0.01 * base


def picard_long_hand(u0, params, config):
    """(last iterate's frames, distances) of picard_iterate by the route that
    forms every refined stack: the refined frames by the interpolation
    formula, u_x by a transform pair of the refined stack, the nonlinearity
    in x, the integral as one trapezoid stack, and each distance as xt_norm
    of the frames' difference.  The cubic is sampled at the nodes and the
    intervals' midpoints (s = 2)."""
    grid, substeps = u0.grid, 2
    times = config.times()
    u0_hat = np.fft.fft(u0.values)
    ixi = 1j * grid.xi_fft
    pol = params.a * grid.xi_fft**2 + params.b * grid.xi_fft**3
    frames = np.fft.ifft(duhamel_flow(grid, params, u0_hat, times), axis=1)
    frames[0] = u0.values
    lam = np.arange(substeps) / substeps
    tau = times[:-1, None] * (1.0 - lam) + times[1:, None] * lam
    tau = np.append(tau.ravel(), times[-1])
    distances = []
    for _ in range(config.max_iterations):
        interp = (frames[:-1, None, :] * (1.0 - lam)[None, :, None]
                  + frames[1:, None, :] * lam[None, :, None])
        fine = np.concatenate([interp.reshape(-1, grid.num_points), frames[-1:]])
        mag2 = fine.real**2 + fine.imag**2
        cubic = mag2 * fine
        du = np.fft.ifft(np.fft.fft(fine, axis=1) * ixi, axis=1)
        n = 1j * params.c * cubic + params.d * mag2 * du + params.e * fine**2 * np.conj(du)
        n_hat = np.fft.fft(n, axis=1) * grid.dealias_mask
        # the trapezoid over tau of the pulled-back forcing, pushed at the nodes
        pulled = np.exp(-1j * tau[:, None] * pol) * n_hat
        held = np.zeros_like(pulled)
        steps = np.diff(tau)[:, None] / 2.0 * (pulled[1:] + pulled[:-1])
        np.cumsum(steps, axis=0, out=held[1:])
        pushed = np.exp(1j * times[:, None] * pol) * (u0_hat - held[::substeps])
        new = np.fft.ifft(pushed, axis=1)
        new[0] = u0.values
        distances.append(xt_norm(SpaceTimeField(grid, times, new - frames), params))
        frames = new
        if distances[-1] <= config.xt_tolerance:
            break
    return frames, distances


@pytest.mark.parametrize("name", ["mkdv", "nlsa-default"])
def test_picard_from_the_spectrum_matches_the_refined_stack_route(name):
    grid = Grid(256, 60.0)
    params = reduction_preset(name)
    if name == "mkdv":
        u0, horizon = GridFunction(grid, soliton_oracle("mkdv")(grid.x, 0.0)), 0.05
    else:
        u0, horizon = gaussian_packet(grid), 0.02
    config = PicardConfig(horizon=horizon, time_nodes=16)
    u, report = picard_iterate(u0, params, config)
    _, long_hand = picard_long_hand(u0, params, config)
    assert report.iterations == len(long_hand)
    assert report.converged == (long_hand[-1] <= config.xt_tolerance)
    # Both routes compute the same exact distances.  A step forms the next
    # iterate from values of the iterate's size M = ||u||_X through at most
    # four n-point transforms (each relative error <= log2(n) eps), a running
    # trapezoid sum over the s*T + 1 refined rows (<= s*T eps, s = 2) and a
    # few products (<= 8 eps): its rounding is at most gamma * M, with gamma
    # = (4 log2 n + s T + 8) eps.  The map contracts with ratio r, so an
    # iterate carries at most gamma M / (1 - r) of rounding, a distance (the
    # norm of two iterates' difference) at most twice that plus the norm's
    # own rounding gamma d, and the two routes differ by at most the sum.
    eps = np.finfo(float).eps
    gamma = (4 * math.log2(grid.num_points) + 2 * config.time_nodes + 8) * eps
    carried = 2 * gamma * xt_norm(u, params) / (1 - report.ratio)
    for d, d_long in zip(report.distances, long_hand):
        assert abs(d - d_long) <= 2 * carried + gamma * (d + d_long), (d, d_long)


def picard_carrying_frames(u0, params, config):
    """(last iterate's frames, distances, ratio) of picard_iterate by the loop
    that carried each iterate's frames next to its spectrum: the forcing
    formed as one refined stack from the whole frame and u_x stacks, the
    integral in one block, each new iterate's frames transformed whole, and
    each distance as _xt_norm of the frames' and the spectra's differences."""
    grid, times = u0.grid, config.times()
    tau = _refined_times(times)
    u0_hat = np.fft.fft(u0.values)
    linear = params.c == 0 and params.d == 0 and params.e == 0

    def frames_of(spec):
        frames = np.fft.ifft(spec, axis=1)
        frames[0] = u0.values
        return frames

    if linear:
        spec = duhamel_flow(grid, params, u0_hat, times)
    else:
        spec = np.conjugate(_flow_phase(grid, params, tau)[::2])
        np.multiply(spec, u0_hat[None, :], out=spec)
    frames = frames_of(spec)
    distances = []
    for _ in range(config.max_iterations):
        if linear:
            new_spec = duhamel_flow(grid, params, u0_hat, times)
        else:
            du = np.fft.ifft(spec * (1j * grid.xi_fft), axis=1)
            forcing = np.empty((tau.size, grid.num_points), dtype=np.complex128)
            _cubic_terms(frames, du, params, forcing[0::2])
            _cubic_terms(frames[:-1] * 0.5 + frames[1:] * 0.5, du[:-1] * 0.5 + du[1:] * 0.5,
                         params, forcing[1::2])
            forcing = np.fft.fft(forcing, axis=1)
            forcing *= grid.dealias_mask[None, :]

            def produce(rows, out):
                out[...] = forcing[rows]

            ((_, h),) = _duhamel_integral(grid, params, tau, produce, tau.size)
            new_spec = np.conjugate(_flow_phase(grid, params, tau)[::2]) * (u0_hat - h[::2])
        new = frames_of(new_spec)
        distances.append(_xt_norm(SpaceTimeField(grid, times, new - frames), new_spec - spec,
                                  params))
        frames, spec = new, new_spec
        if distances[-1] <= config.xt_tolerance:
            break
    quotients = [b / a for a, b in zip(distances, distances[1:]) if a > 0]
    return frames, distances, float(np.median(quotients)) if quotients else 0.0


carried_unit = st.floats(-1.0, 1.0)
# each of c, d and e is 0 or drawn, so mkdv's zero terms and the linear
# equation's free flow are reached
carried_cubic = st.just(0j) | st.builds(complex, carried_unit, carried_unit)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(a=carried_unit, b=carried_unit, c=carried_cubic, d=carried_cubic, e=carried_cubic,
       amplitude=st.floats(0.1, 1.0), width=st.floats(0.5, 2.0), carrier=st.floats(-3.0, 3.0))
@example(a=0.0, b=1.0, c=0j, d=1 + 0j, e=0j, amplitude=1.0, width=1.0, carrier=0.0)
@example(a=1.0, b=1.0, c=0j, d=0j, e=0j, amplitude=1.0, width=1.0, carrier=2.0)
def test_picard_from_the_spectrum_is_the_frame_carrying_loop_bit_for_bit(
        a, b, c, d, e, amplitude, width, carrier):
    grid = Grid(256, 40.0)
    params = EquationParams(a=a, b=b, c=c, d=d, e=e)
    u0 = gaussian_packet(grid, amplitude=amplitude, width=width, freq=carrier)
    config = PicardConfig(horizon=0.1, time_nodes=16)
    u, report = picard_iterate(u0, params, config)
    frames, distances, ratio = picard_carrying_frames(u0, params, config)
    assert u.frames.tobytes() == frames.tobytes()
    assert np.array(report.distances).tobytes() == np.array(distances).tobytes()
    assert report.ratio.hex() == ratio.hex()


def test_one_picard_iteration_transforms_1031_rows(monkeypatch):
    # per iteration: u and u_x at the T + 1 nodes, both from the iterate's
    # spectrum, the forcing at the 2T + 1 refined times, the new frames, and
    # the distance's three multipliers, 6 (T + 1) + (2T + 1) rows; an
    # iteration that carried the frames next to the spectrum transformed
    # 5 (T + 1) + (2T + 1) = 902, and the refined-stack route
    # 3 (2T + 1) + 5 (T + 1) = 1416.  A stack transformed twice adds T + 1
    grid = Grid(256, 60.0)
    u0 = GridFunction(grid, soliton_oracle("mkdv")(grid.x, 0.0))
    params = reduction_preset("mkdv")
    rows = []

    def counted(transform):
        def wrapper(a, *args, **kwargs):
            rows.append(np.asarray(a).size // grid.num_points)
            return transform(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
    totals = []
    for iterations in (1, 2):
        rows.clear()
        config = PicardConfig(horizon=0.05, time_nodes=128, max_iterations=iterations)
        _, report = picard_iterate(u0, params, config)
        assert report.iterations == iterations
        totals.append(sum(rows))
    assert totals[1] - totals[0] == 6 * 129 + 257 == 1031


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 10.0) | st.floats(1e-300, 1e300), min_size=1, max_size=20))
def test_ratio_median_is_numpys(quotients):
    # odd and even counts: the middle value, or (a + b) / 2 of the two middle ones
    assert _median(quotients) == np.median(quotients)
    assert type(_median(quotients)) is float


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(nodes=st.lists(_FINITE, min_size=2, max_size=20, unique=True), negative_zero=st.booleans())
@example(nodes=[0.0, 0.5, 1.0], negative_zero=True)
def test_refined_times_are_the_nodes_and_their_midpoints(nodes, negative_zero):
    # strictly increasing finite times, the first node -0.0 or not; compared
    # on bytes, so a -0.0 that turned into +0.0 shows
    times = np.array(sorted(nodes))
    if negative_zero:
        times = np.append(-0.0, times[times > 0.0])
    assume(len(times) >= 2)
    tau = _refined_times(times)
    assert len(tau) == 2 * len(times) - 1
    assert tau[0::2].tobytes() == times.tobytes()
    assert tau[1::2].tobytes() == (0.5 * times[:-1] + 0.5 * times[1:]).tobytes()


def test_a_solve_does_not_import_numpy_ma():
    # np.median imported numpy.ma on its first call, 16.6 ms inside a solve
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from nlsa_lab.picard import (PicardConfig, picard_iterate, reduction_preset,\n"
        "                             soliton_oracle)\n"
        "from nlsa_lab.spectral import Grid, GridFunction\n"
        "grid = Grid(256, 60.0)\n"
        "u0 = GridFunction(grid, soliton_oracle('mkdv')(grid.x, 0.0))\n"
        "_, report = picard_iterate(u0, reduction_preset('mkdv'), PicardConfig(0.05, 16))\n"
        "print(report.iterations, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    iterations, imported = proc.stdout.split()
    assert int(iterations) > 2 and imported == "False"


# ---------------------------------------------------------------------------
# Ball radius.
# ---------------------------------------------------------------------------

def test_select_radius_and_horizon():
    # the report's ball radius: 0 for zero data, and homogeneous of degree 1
    params = reduction_preset("nlsa-default")
    config = PicardConfig(horizon=0.01, time_nodes=4, max_iterations=2)
    zero = GridFunction(GRID, np.zeros(GRID.num_points))
    assert picard_iterate(zero, params, config)[1].radius == 0.0

    u0 = gaussian_packet(GRID)
    radius1 = picard_iterate(u0, params, config)[1].radius
    doubled = GridFunction(GRID, 2.0 * u0.values)
    radius2 = picard_iterate(doubled, params, config)[1].radius
    assert abs(radius2 - 2 * radius1) < 1e-12 * radius1


def test_radius_whose_cube_overflows():
    # a radius past 5.6e102 cubes beyond float64, and the report still gives
    # it exactly while the solve converges
    params = EquationParams(a=1.0, b=1.0)
    u0 = gaussian_packet(GRID, amplitude=1e120)
    _, report = picard_iterate(u0, params, PicardConfig(horizon=0.01, time_nodes=4))
    assert report.converged
    assert report.radius == 2.0 * (sobolev_norm(u0, 0.25)
                                   + l2_norm(weight_multiply(u0, params.m)))


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def test_persistence_zero_field():
    params = reduction_preset("nlsa-default")
    zero = SpaceTimeField(GRID, [0.0, 0.1], np.zeros((2, GRID.num_points)))
    report = persistence_report(zero, params)
    assert report.h_quarter_history == [0.0, 0.0]
    assert report.h_quarter_ratio == 1.0 and report.weighted_ratio == 1.0


def test_persistence_linear_flow_constant_sobolev():
    params = EquationParams(a=1.0, b=1.0)
    u0 = gaussian_packet(GRID)
    flow = semigroup_evolve(u0, np.linspace(0.0, 0.5, 17), params)
    report = persistence_report(flow, params)
    hist = report.h_quarter_history
    assert max(hist) - min(hist) < 1e-8 * max(hist)


def test_persistence_soliton_weighted_within_factor_two():
    sol = soliton_oracle("mkdv")
    u0 = GridFunction(GRID, sol(GRID.x, 0.0))
    u, _ = picard_iterate(u0, sol.params(), PicardConfig(horizon=0.05, time_nodes=64))
    report = persistence_report(u, sol.params())
    hist = report.weighted_history
    assert max(hist) <= 2.0 * hist[0]
    assert report.weighted_ratio < 2.0


# ---------------------------------------------------------------------------
# Presets and solitons.
# ---------------------------------------------------------------------------

def test_reduction_presets_coefficients():
    mkdv = reduction_preset("mkdv")
    assert (mkdv.a, mkdv.b, mkdv.c, mkdv.d, mkdv.e) == (0.0, 1.0, 0.0, 1.0, 0.0)
    nls = reduction_preset("NLS")
    assert (nls.a, nls.b, nls.d, nls.e) == (-1.0, 0.0, 0.0, 0.0)
    dnls = reduction_preset("dnls")
    assert (dnls.a, dnls.b, dnls.c) == (-1.0, 0.0, 0.0)
    assert dnls.d == 2 * dnls.e != 0
    default = reduction_preset("nlsa-default")
    assert default.full_derivative_ok
    assert mkdv.m == 0.125
    with pytest.raises(ValueError, match="preset"):
        reduction_preset("kdv")


@pytest.mark.parametrize("name,amplitude", [("mkdv", 1.0), ("mkdv", 1.3), ("nls", 1.0)])
def test_soliton_solves_its_equation(name, amplitude):
    grid = Grid(2048, 60.0)
    sol = soliton_oracle(name, amplitude, x_shift=1.0)
    params = sol.params()
    t = 0.3
    u = GridFunction(grid, sol(grid.x, t))
    ux = spatial_derivative(u, 1).values
    residual = (
        sol.time_derivative(grid.x, t)
        + 1j * params.a * spatial_derivative(u, 2).values
        + params.b * spatial_derivative(u, 3).values
        + 1j * params.c * np.abs(u.values) ** 2 * u.values
        + params.d * np.abs(u.values) ** 2 * ux
        + params.e * u.values**2 * np.conj(ux)
    )
    assert np.max(np.abs(residual)) < 1e-6


@pytest.mark.parametrize("kwargs, name", [
    ({"x_shift": math.nan}, "x_shift"),
    ({"x_shift": math.inf}, "x_shift"),
    ({"amplitude": math.nan}, "amplitude"),
    ({"amplitude": math.inf}, "amplitude"),
], ids=["shift-nan", "shift-inf", "amplitude-nan", "amplitude-inf"])
def test_soliton_oracle_refuses_non_finite_values_naming_the_field(kwargs, name):
    # a non-finite shift or amplitude gives an all-NaN field, or an all-zero one (shift inf)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        soliton_oracle("nls", **kwargs)


@pytest.mark.parametrize("name", ["mkdv", "nls"])
def test_soliton_oracle_refuses_an_amplitude_whose_square_overflows(name):
    # the profiles take the Python float power k**2, which raised OverflowError
    with pytest.raises(ValueError, match=r"^amplitude 1e\+200: its square overflows float64$"):
        soliton_oracle(name, 1e200)
    # the largest amplitudes whose square is finite still evaluate
    top = math.sqrt(np.finfo(float).max)
    assert np.isfinite(soliton_oracle(name, top)(np.linspace(-1.0, 1.0, 3), 0.0)).all()


def test_soliton_profile_and_scaling():
    sol = soliton_oracle("mkdv", 1.4, x_shift=-2.0)
    vals = sol(GRID.x, 0.0)
    expected = math.sqrt(6.0) * 1.4 / np.cosh(1.4 * (GRID.x + 2.0))
    assert np.max(np.abs(vals - expected)) < 1e-14
    nls = soliton_oracle("nls")
    assert np.max(np.abs(nls(GRID.x, 0.0) - 1.0 / np.cosh(GRID.x))) < 1e-14
    with pytest.raises(ValueError, match="soliton"):
        soliton_oracle("kdv")
    with pytest.raises(ValueError, match="amplitude"):
        soliton_oracle("mkdv", -1.0)
    # where k*x's cosh overflows, the profile and its time derivative are 0
    steep = soliton_oracle("mkdv", 30.0)
    x = np.linspace(-30.0, 30.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, dt = steep(x, 0.0), steep.time_derivative(x, 0.0)
        # amplitudes whose fourth power overflows, up to the largest whose
        # square does not: sech(k) and tanh(0) make the derivative 0 at -1, 0, 1
        huge = [soliton_oracle("mkdv", k).time_derivative(np.linspace(-1.0, 1.0, 3), 0.0)
                for k in (1e77, 1e100, 1.3e154)]
        nls_huge = soliton_oracle("nls", 1e100).time_derivative(np.linspace(-1.0, 1.0, 3), 0.0)
    assert np.all(np.isfinite(dt))
    assert vals[0] == vals[-1] == dt[0] == dt[-1] == 0.0
    assert all(np.array_equal(row, np.zeros(3)) for row in huge)
    assert np.array_equal(nls_huge, [0.0, 1e300j, 0.0])


# ---------------------------------------------------------------------------
# Pointwise difference factorizations.
# ---------------------------------------------------------------------------

def test_difference_factorizations():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = random_field(GRID, rng)
        v = random_field(GRID, rng)
        du = spatial_derivative(u).values
        dv = spatial_derivative(v).values
        uu, vv = u.values, v.values

        lhs = np.abs(vv) ** 2 * vv - np.abs(uu) ** 2 * uu
        scale = np.max(np.abs(lhs)) + 1e-30
        assert np.max(np.abs(sum(cubic_difference_split(uu, vv)) - lhs)) < 1e-10 * scale

        lhs = np.abs(vv) ** 2 * dv - np.abs(uu) ** 2 * du
        scale = np.max(np.abs(lhs)) + 1e-30
        terms = derivative_difference_split(uu, vv, du, dv)
        assert np.max(np.abs(sum(terms) - lhs)) < 1e-10 * scale

        lhs = vv**2 * np.conj(dv) - uu**2 * np.conj(du)
        scale = np.max(np.abs(lhs)) + 1e-30
        terms = conjugate_derivative_difference_split(uu, vv, du, dv)
        assert np.max(np.abs(sum(terms) - lhs)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# The equation's symmetries, kept by the discrete solve.
# ---------------------------------------------------------------------------
# Each bound is on max |difference| / max |u| over all frames, in units of eps,
# and was stated before measuring: 32 eps for the three exact symmetries, and
# 2^13 eps for the time-reversal round trip.  The round trip reads whether
# today's rule is time-symmetric, not its accuracy: a one-sided rule would miss
# by its time error, about 1e-7.

SYMMETRY_GRID = Grid(256, 40.0)
SYMMETRY_CONFIG = PicardConfig(horizon=0.1, time_nodes=16, xt_tolerance=1e-13)
SYMMETRY = settings(max_examples=20, derandomize=True, deadline=None)
EPS = np.finfo(float).eps
unit = st.floats(-1.0, 1.0)
# real a and b, complex c, d and e
coefficient_sets = st.tuples(unit, unit, *[st.builds(complex, unit, unit)] * 3)
packets = st.builds(lambda center, carrier: gaussian_packet(SYMMETRY_GRID, freq=carrier,
                                                            center=center).values,
                    st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))


def symmetry_solve(coefficients, values):
    u, _ = picard_iterate(GridFunction(SYMMETRY_GRID, values), EquationParams(*coefficients),
                          SYMMETRY_CONFIG)
    return u.frames


def sup_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def reflect(values):
    """v(-x) on the grid: index k goes to (n - k) mod n."""
    return np.roll(values[..., ::-1], 1, axis=-1)


@SYMMETRY
@given(coefficients=coefficient_sets, u0=packets, theta=st.floats(0.0, 2 * np.pi))
def test_solve_commutes_with_phase_rotation(coefficients, u0, theta):
    rotation = np.exp(1j * theta)
    assert sup_gap(symmetry_solve(coefficients, rotation * u0),
                   rotation * symmetry_solve(coefficients, u0)) <= 32 * EPS


@SYMMETRY
@given(coefficients=coefficient_sets, u0=packets, cells=st.integers(-40, 40))
def test_solve_commutes_with_translation_by_whole_cells(coefficients, u0, cells):
    assert sup_gap(symmetry_solve(coefficients, np.roll(u0, cells)),
                   np.roll(symmetry_solve(coefficients, u0), cells, axis=-1)) <= 32 * EPS


@SYMMETRY
@given(coefficients=coefficient_sets, u0=packets)
def test_reflected_conjugate_solves_the_negated_equation(coefficients, u0):
    # conj(u(-x, t)) solves the equation with all five coefficients negated
    # and conjugated (a and b are real)
    negated = [-np.conj(k) for k in coefficients]
    assert sup_gap(symmetry_solve(negated, np.conj(reflect(u0))),
                   np.conj(reflect(symmetry_solve(coefficients, u0)))) <= 32 * EPS


@pytest.mark.filterwarnings("ignore::nlsa_lab.picard.BoundaryMassWarning")
@SYMMETRY
@given(coefficients=coefficient_sets, u0=packets)
def test_negated_equation_from_the_last_frame_returns_the_data(coefficients, u0):
    # u(T)'s high frequencies can reach the box edge, which the warning names
    negated = [-k for k in coefficients]
    back = symmetry_solve(negated, symmetry_solve(coefficients, u0)[-1])
    assert sup_gap(back[-1], u0) <= 2**13 * EPS
