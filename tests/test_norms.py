"""Norm definitions against closed forms and an independent re-implementation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsa_lab import norms
from nlsa_lab.norms import (
    NormReport,
    SpaceTimeField,
    _sobolev,
    _weighted_l2,
    l2_norm,
    mixed_norm_t_x,
    mixed_norm_x_t,
    mu_norms,
    sobolev_norm,
    xt_norm,
)
from nlsa_lab.spectral import (EquationParams, Grid, GridFunction, _weight, dft_forward,
                               weight_multiply)

SEED = 314159


def make_field(grid, times, fn):
    frames = np.array([fn(grid.x, t) for t in times], dtype=complex)
    return SpaceTimeField(grid, np.asarray(times, float), frames)


def random_field(grid, times, rng, n_modes=12, band=6.0):
    """Smooth localized field from continuum parameters (grid-independent)."""
    freqs = rng.uniform(-band, band, n_modes)
    rates = rng.uniform(-4.0, 4.0, n_modes)
    amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    width = rng.uniform(2.0, 5.0)

    def fn(x, t):
        waves = sum(a * np.exp(1j * (k * x - w * t)) for a, k, w in zip(amps, freqs, rates))
        return waves * np.exp(-(x**2) / (2 * width**2))

    return make_field(grid, times, fn)


def test_spacetimefield_validation():
    g = Grid(64, 20.0)
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.array([0.1, 0.2]), np.zeros((2, 64)))
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.array([0.0, 0.2, 0.1]), np.zeros((3, 64)))
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.array([0.0, 0.1]), np.zeros((3, 64)))


def test_sobolev_norm_basics():
    g = Grid(1024, 80.0)
    f = GridFunction(g, np.exp(-g.x**2 / 2))
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    # single mode: norm proportional to <xi0>^s
    g2 = Grid(256, 16 * np.pi)
    mode = GridFunction(g2, np.exp(2j * g2.x))
    base = sobolev_norm(mode, 0.0)
    assert sobolev_norm(mode, 2.0) == pytest.approx(5.0 * base, rel=1e-10)

    # monotone in s with constant exactly 1
    for s1, s2 in [(0.0, 0.25), (0.25, 1.0), (-0.5, 0.0)]:
        assert sobolev_norm(f, s1) <= sobolev_norm(f, s2) * (1 + 1e-12)


def test_sobolev_grid_refinement():
    coarse = Grid(1024, 80.0)
    fine = Grid(2048, 80.0)
    a = sobolev_norm(GridFunction(coarse, np.exp(-coarse.x**2 / 2)), 0.25)
    b = sobolev_norm(GridFunction(fine, np.exp(-fine.x**2 / 2)), 0.25)
    assert abs(a - b) < 1e-8


@pytest.mark.parametrize("n, length", [(2, 3.0), (64, 20.0), (256, 60.0), (1000, 7.5)])
@pytest.mark.parametrize("s", [0.0, 0.25, 1.0])
def test_sobolev_norm_is_the_continuum_formula_on_dft_forward(n, length, s):
    # (1/2pi * sum <xi>^2s |fhat|^2 dxi)^(1/2) on the conjugate grid, in
    # ascending order and with dft_forward's phase factor
    grid = Grid(n, length)
    rng = np.random.default_rng(n)
    f = GridFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    fhat = dft_forward(f)
    weight = (1.0 + fhat.grid.x ** 2) ** s
    total = fhat.grid.spacing * np.sum(weight * np.abs(fhat.values) ** 2)
    want = math.sqrt(total / (2 * np.pi))
    rounding = 4 * np.finfo(float).eps * math.log2(2 * n)
    assert sobolev_norm(f, s) == pytest.approx(want, rel=rounding)


def test_sobolev_norm_of_a_transform_that_overflows_is_inf():
    # the FFT's zero mode overflows to inf; a phase factor on it read NaN
    f = GridFunction(Grid(2, 1.698309537570162e16), np.full(2, 1.5e308))
    with np.errstate(over="ignore", invalid="raise"):
        assert sobolev_norm(f, 0.25) == math.inf


def test_mixed_norms_zero_and_constant_in_time():
    g = Grid(256, 20.0)
    times = np.linspace(0.0, 2.0, 17)
    zero = make_field(g, times, lambda x, t: np.zeros_like(x))
    assert mixed_norm_x_t(zero, 2, 2) == 0
    assert mixed_norm_t_x(zero, 5, math.inf) == 0

    prof = lambda x: np.exp(-(x**2))
    u = make_field(g, times, lambda x, t: prof(x))
    gp = l2_norm(GridFunction(g, prof(g.x)))
    # q = inf collapses to the spatial norm
    assert mixed_norm_x_t(u, 2, math.inf) == pytest.approx(gp, rel=1e-12)
    # constant in time: L^p_x L^q_T = T^(1/q) ||g||_p
    T = times[-1]
    assert mixed_norm_x_t(u, 2, 4) == pytest.approx(T**0.25 * gp, rel=1e-10)


def test_mixed_norm_separable_oracle():
    g = Grid(512, 40.0)
    times = np.linspace(0.0, 1.0, 101)
    u = make_field(g, times, lambda x, t: np.exp(-(x**2)) * (1 + t) ** 2)
    # ||g||_{L^3_x} in closed form; time factor under the same trapezoid rule
    gx = (np.sqrt(np.pi / 3)) ** (1 / 3)          # (int e^{-3x^2})^{1/3}
    ht = np.trapezoid((1 + times) ** 8, x=times) ** 0.25
    ht_exact = ((2.0**9 - 1) / 9) ** 0.25         # (int_0^1 (1+t)^8 dt)^{1/4}
    got = mixed_norm_x_t(u, 3, 4)
    assert got == pytest.approx(gx * ht, rel=1e-10)
    assert got == pytest.approx(gx * ht_exact, rel=1e-3)
    # and with the integration order swapped
    got_tx = mixed_norm_t_x(u, 4, 3)
    assert got_tx == pytest.approx(ht * gx, rel=1e-10)


def test_mu_norms_zero_and_single_mode():
    g = Grid(256, 16 * np.pi)
    times = np.linspace(0.0, 0.5, 9)
    params = EquationParams(a=0.0, b=1.0)
    zero = make_field(g, times, lambda x, t: np.zeros_like(x))
    rep = mu_norms(zero, params)
    assert rep.x_norm == 0 and rep.y_norm == 0
    assert all(v == 0 for v in rep.weighted_history)

    mode = make_field(g, times, lambda x, t: np.exp(2j * x))
    rep = mu_norms(mode, params)
    assert rep.mu5 == pytest.approx(g.length ** 0.25, rel=1e-10)


def test_mu_norms_against_direct_summation():
    """Recompute each mu with plain loops over the definition."""
    g = Grid(256, 24.0)
    times = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(SEED)
    u = random_field(g, times, rng)
    params = EquationParams(a=1.0, b=1.0, m=0.125)
    rep = mu_norms(u, params)

    def mult(frames, sym):
        return np.fft.ifft(np.fft.fft(frames, axis=1) * np.fft.ifftshift(sym)[None, :], axis=1)

    xi = g.xi
    du = mult(u.frames, 1j * xi)
    dqu = mult(u.frames, np.abs(xi) ** 0.25)
    dqdu = mult(u.frames, np.abs(xi) ** 0.25 * 1j * xi)
    dx = g.spacing

    def linf_t_l2_x(fr):
        return max(np.sqrt(dx * np.sum(np.abs(row) ** 2)) for row in fr)

    def lp_x_lq_t(fr, p, q):
        per_x = [np.trapezoid(np.abs(fr[:, j]) ** q, x=times) ** (1 / q) for j in range(fr.shape[1])]
        return (dx * np.sum(np.asarray(per_x) ** p)) ** (1 / p)

    mu1 = linf_t_l2_x(u.frames) + linf_t_l2_x(dqu)
    mu2 = max(np.sqrt(np.trapezoid(np.abs(du[:, j]) ** 2, x=times)) for j in range(g.num_points))
    mu2 += max(np.sqrt(np.trapezoid(np.abs(dqdu[:, j]) ** 2, x=times)) for j in range(g.num_points))
    mu3 = lp_x_lq_t(du, 20, 2.5)
    mu4 = lp_x_lq_t(u.frames, 5, 10) + lp_x_lq_t(dqu, 5, 10)
    mu5 = (dx * np.sum(np.max(np.abs(u.frames), axis=0) ** 4)) ** 0.25

    assert rep.mu1 == pytest.approx(mu1, rel=1e-10)
    assert rep.mu2 == pytest.approx(mu2, rel=1e-10)
    assert rep.mu3 == pytest.approx(mu3, rel=1e-10)
    assert rep.mu4 == pytest.approx(mu4, rel=1e-10)
    assert rep.mu5 == pytest.approx(mu5, rel=1e-10)
    assert rep.x_norm == rep.y_norm + rep.weighted_sup


def test_weighted_sup_norm():
    g = Grid(131072, 30.0)
    times = np.array([0.0, 0.5, 1.0])
    grow = make_field(g, times, lambda x, t: (1 + t) * np.exp(-x**2 / 2))

    def weighted_sup_norm(u, m):
        return float(np.max(_weighted_l2(u.grid, u.frames, m)))

    # closed form: ||x|^(1/2) e^{-x^2/2}||_2^2 = 1, growing by (1+t)
    assert weighted_sup_norm(grow, 0.5) == pytest.approx(2.0, abs=1e-7)
    assert weighted_sup_norm(grow, 0.0) == pytest.approx(
        2.0 * l2_norm(GridFunction(g, np.exp(-g.x**2 / 2))), rel=1e-12
    )


def test_weight_vanishes_at_an_origin_an_ulp_off_zero():
    # on 22 points of a 60-long grid, x computes index 11 as -3.6e-15, whose
    # |x|^(1/8) is 0.0156; the weight there is 0 all the same
    g = Grid(22, 60.0)
    assert g.x[11] != 0.0
    spike = np.zeros(22, dtype=complex)
    spike[11] = 1.0
    assert weight_multiply(GridFunction(g, spike), 0.125).values[11] == 0.0
    report = mu_norms(SpaceTimeField(g, [0.0, 0.1], [spike, spike]),
                      EquationParams(a=1.0, b=1.0, m=0.125))
    assert report.weighted_sup == 0.0 and report.weighted_history == [0.0, 0.0]
    # and m = 0 is the plain L^2 norm, the origin included
    assert weight_multiply(GridFunction(g, spike), 0.0).values[11] == 1.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    half=st.integers(1, 2048),
    length=st.floats(1e-2, 1e3),
    m=st.floats(0.0, 1.0, exclude_max=True) | st.just(0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(half=149, length=60.0, m=0.0625, seed=0)
def test_weighted_l2_kernel(half, length, m, seed):
    g = Grid(2 * half, length)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((3, g.num_points)) + 1j * rng.standard_normal((3, g.num_points))
    norms = _weighted_l2(g, stack, m)
    for row, norm in zip(stack, norms):
        # a frame stack reads as its rows, bit for bit
        assert _weighted_l2(g, row, m) == norm
        f = GridFunction(g, row)
        assert l2_norm(weight_multiply(f, m)) == norm
        if m == 0:
            assert l2_norm(f) == norm
        else:
            # h * sum over every point but the origin, index n/2, of |x|^2m |u|^2
            terms = [abs(-length / 2 + g.spacing * j) ** (2 * m) * abs(u) ** 2
                     for j, u in enumerate(row) if j != half]
            assert norm == pytest.approx(math.sqrt(g.spacing * math.fsum(terms)), rel=1e-13)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    half=st.integers(1, 512),
    length=st.floats(1e-2, 1e3),
    frames=st.integers(1, 40),
    m=st.floats(0.0, 1.0, exclude_max=True) | st.just(0.0),
    s=st.sampled_from([0.0, 0.25, 1.0]) | st.floats(-1.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_and_sobolev_histories_stream_bit_for_bit(half, length, frames, m, s, seed):
    # the weighted and H^s norms of a frame stack are taken a block of rows
    # at a time; blocks of 1, 3 and 16 rows and the whole stack give the bytes
    # of the whole-stack formulas, each a product and a sum along the last axis
    g = Grid(2 * half, length)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((frames, g.num_points)) + 1j * rng.standard_normal(
        (frames, g.num_points))
    spec = np.fft.fft(stack, axis=-1)
    weighted = np.sqrt(g.spacing * np.sum(np.abs(_weight(g, m) * stack) ** 2, axis=-1))
    power = np.abs(spec) ** 2
    sobolev = np.sqrt(g.spacing / g.num_points
                      * np.sum((1.0 + g.xi_fft**2) ** s * power, axis=-1))
    for block in (1, 3, 16, frames):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(norms, "_rows_per_block", lambda num_points: block)
            assert _weighted_l2(g, stack, m).tobytes() == weighted.tobytes()
            assert _sobolev(g, spec, s).tobytes() == sobolev.tobytes()
    # and a single row reads as the row of a stack
    assert _weighted_l2(g, stack[-1], m).tobytes() == weighted[-1].tobytes()
    assert _sobolev(g, spec[-1], s).tobytes() == sobolev[-1].tobytes()


def test_norm_homogeneity_and_triangle():
    g = Grid(256, 24.0)
    times = np.linspace(0.0, 0.8, 17)
    rng = np.random.default_rng(SEED + 1)
    params = EquationParams(a=1.0, b=-1.0, m=0.125)
    for _ in range(5):
        u = random_field(g, times, rng)
        v = random_field(g, times, rng)
        lam = rng.uniform(0.2, 3.0)
        assert xt_norm(
            SpaceTimeField(g, times, lam * u.frames), params
        ) == pytest.approx(lam * xt_norm(u, params), rel=1e-12)
        s = SpaceTimeField(g, times, u.frames + v.frames)
        assert xt_norm(s, params) <= xt_norm(u, params) + xt_norm(v, params) + 1e-12
    assert xt_norm(u, params) > 0


def test_norm_report_serialization():
    rep = NormReport(1, 2, 3, 4, 5, 15, 0.5, 15.5, [1.0, 1.1], [0.2, 0.3])
    d = rep.to_dict()
    assert set(d) == {
        "mu1", "mu2", "mu3", "mu4", "mu5",
        "y_norm", "weighted_sup", "x_norm",
        "h_quarter_history", "weighted_history",
        "h_quarter_ratio", "weighted_ratio",
    }
    assert d["x_norm"] == 15.5 and d["weighted_history"] == [0.2, 0.3]
    assert math.isnan(d["h_quarter_ratio"]) and math.isnan(d["weighted_ratio"])
