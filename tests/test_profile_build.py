"""The band profile's table build and real-axis evaluation do no wasted work.

The build evaluates the transform only on the grid window over its support
[1/2, 2]; that is exact only because the transform is +0.0 everywhere else
on the 2^23-point grid.  The table comes from a pruned four-step transform
that forms only the outputs the table keeps; it is checked against the dense
transform at small sizes (one and several chunks of twiddles) and against a
long-double direct sum at full size.  Contour arcs evaluate the profile by a
trapezoid sum factored into two small exponential tables; it is checked
against a long-double trapezoid sum, and one arc panel's memory is bounded.
The spline is a cardinal quintic B-spline: its coefficients interpolate the
conjugate-symmetric continuation of the knots, and its six basis weights
are closed-form.  `eval_real` evaluates the spline once on |v| and fixes up
signs in place; it must give the same bits as the gather/scatter formula it
replaces, whatever the input's order.  The derivative masses take ten inverse
transforms: nine orders on 2^17 points, and the eighth alone on 2^16 for the
build's stability check.
"""

import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsa_lab.oscillatory import (
    PhiProfile,
    _gl01,
    _pruned_ifft,
    _quintic_coefficients,
    _quintic_weights,
)

N_T = 2 ** 23


@pytest.fixture(scope="module")
def prof():
    return PhiProfile.cached(0.125)


def _grid_step(prof):
    return 2.0 * np.pi / (prof.DV / 2.0) / N_T


def _assert_positive_zero(values):
    assert np.all(values == 0.0)
    assert not np.any(np.signbit(values))


def test_transform_is_positive_zero_off_the_support_window(prof):
    dx = _grid_step(prof)
    first_in = math.floor(0.5 / dx) + 1  # first grid point above 1/2
    last_in = math.ceil(2.0 / dx) - 1  # last grid point below 2
    # the points next to the window on both sides
    edges = np.concatenate([
        np.arange(max(0, first_in - 64), first_in),
        np.arange(last_in + 1, last_in + 65),
    ])
    _assert_positive_zero(prof._transform_values(edges * dx))
    # a strided sample of the rest of the grid
    rest = np.arange(0, N_T, 997)
    rest = rest[(rest < first_in) | (rest > last_in)]
    _assert_positive_zero(prof._transform_values(rest * dx))


def test_build_allocates_only_the_transform_grid():
    # a dense transform on all 2^23 points peaks at about 456 MB of traced
    # allocations, the windowed one at about 271 MB, and the pruned one with
    # a banded spline solve at about 112 MiB (61 MB of it the band matrix);
    # the pruned transform with the prefiltered cardinal spline peaks at
    # about 44 MiB, and the bound leaves about a quarter of that as margin
    tracemalloc.start()
    try:
        PhiProfile(0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2 ** 20


def _gather_scatter(prof, v):
    """The formula eval_real replaces: conj(spline(|v|)) for v < 0,
    spline(v) otherwise, zero beyond the table end and at NaN."""
    v = np.asarray(v, dtype=np.float64)
    av = np.abs(v)
    out = np.zeros(v.shape, dtype=np.complex128)
    inside = av <= prof.v_end
    vals = prof._spline(av[inside])
    out[inside] = np.where(v[inside] < 0, np.conj(vals), vals)
    return prof.scale * out


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=np.complex128)).view(np.uint64)


@pytest.mark.parametrize("scale", [1.0, 2.0, 0.0])
def test_eval_real_matches_the_gather_scatter_formula_bit_for_bit(prof, scale):
    prof = copy.copy(prof)
    prof.scale = scale
    end = prof.v_end
    beyond = np.nextafter(end, np.inf)
    special = np.array([0.0, -0.0, end, -end, beyond, -beyond, 2.0 * end, -1e300,
                        np.inf, -np.inf, np.nan])
    v = np.concatenate([np.linspace(-1.1 * end, 1.1 * end, 4001), special])
    got = prof.eval_real(v)
    assert got.dtype == np.complex128 and got.shape == v.shape
    np.testing.assert_array_equal(_bits(got), _bits(_gather_scatter(prof, v)))
    off = ~(np.abs(v) <= end)
    _assert_positive_zero(got[off].view(np.float64))


def test_eval_real_keeps_a_0d_input_0d(prof):
    for x in (3.25, -3.25, 2.0 * prof.v_end):
        got = prof.eval_real(np.float64(x))
        assert np.shape(got) == ()
        np.testing.assert_array_equal(
            _bits(got), _bits(_gather_scatter(prof, np.array([x]))[0])
        )


def test_eval_real_is_independent_of_input_order(prof):
    rng = np.random.default_rng(11)
    v = np.sort(rng.uniform(-1.05 * prof.v_end, 1.05 * prof.v_end, 4000))
    order = rng.permutation(v.size)
    np.testing.assert_array_equal(
        _bits(prof.eval_real(v[order])), _bits(prof.eval_real(v)[order])
    )


# abscissae as fractions of v_end: inside and past the table, both ends,
# signed zeros, huge values, infinities and NaN
_FRACTIONS = st.one_of(
    st.floats(-1.2, 1.2),
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 2.0, -2.0, 1e300, -1e300,
                     np.inf, -np.inf, np.nan]),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(fractions=st.lists(_FRACTIONS, min_size=1, max_size=40),
       n_uniform=st.integers(0, 3 * 8192), seed=st.integers(0, 2 ** 32 - 1))
def test_eval_real_commutes_with_every_permutation(prof, fractions, n_uniform, seed):
    # the uniform draws make the input span several evaluation chunks
    rng = np.random.default_rng(seed)
    v = prof.v_end * np.concatenate([fractions, rng.uniform(-1.2, 1.2, n_uniform)])
    perm = rng.permutation(v.size)
    whole = prof.eval_real(v)
    np.testing.assert_array_equal(_bits(prof.eval_real(v[perm])), _bits(whole[perm]))
    one = prof.eval_real(v[0])
    assert np.shape(one) == ()
    np.testing.assert_array_equal(_bits(one), _bits(whole[0]))


# ---------------------------------------------------------------------------
# the cardinal quintic spline
# ---------------------------------------------------------------------------

def _beta5(x):
    """The centred quintic B-spline at a rational x, exactly."""
    return sum((-1) ** k * math.comb(6, k) * max(x + 3 - k, 0) ** 5 for k in range(7)) / 120


def test_quintic_weights_are_the_b_spline_basis():
    t = np.concatenate([np.linspace(0.0, 1.0, 1001, endpoint=False),
                        [np.nextafter(1.0, 0.0)]])
    weights = _quintic_weights(t)
    eps = np.finfo(np.float64).eps
    for k, w in enumerate(weights):
        exact = np.array([float(_beta5(Fraction(x) + 2 - k)) for x in t])
        assert np.abs(w - exact).max() <= 2 * eps
    assert np.abs(sum(weights) - 1.0).max() <= 2 * eps


@pytest.mark.parametrize("n", [1, 2, 5, 200])
def test_quintic_coefficients_interpolate_the_symmetric_extension(n):
    rng = np.random.default_rng(n)
    knots = rng.normal(size=n) + 1j * rng.normal(size=n)
    knots[0] = knots[0].real  # f_0 = conj f_0 on the symmetric extension
    c = _quintic_coefficients(knots)
    assert c.shape == (n + 5,)  # c_{-2} .. c_{n+2}
    # sum_j c_j beta5(k - j) at k = 0 .. n, the last one on the zero padding
    got = (c[:-4] + 26.0 * c[1:-3] + 66.0 * c[2:-2] + 26.0 * c[3:-1] + c[4:]) / 120.0
    want = np.concatenate([knots, [0.0]])
    assert np.abs(got - want).max() <= 1e-15 * np.abs(knots).max()
    # c_{-j} = conj c_j
    np.testing.assert_allclose(c[:2], np.conj(c[4:2:-1]), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the pruned four-step table transform
# ---------------------------------------------------------------------------

N_SMALL = 2 ** 12
N1_SMALL = 2 ** 6
# (n, n1): with n2 = n / n1 = 64 the k2 run in one chunk, whose coarse twiddle
# factor is 1, so the n2 = 256 shape is there to check the coarse factor
SHAPES = ((N_SMALL, N1_SMALL), (2 ** 14, 2 ** 6))


@st.composite
def _windows(draw):
    """(n, n1, lo, width, n_out) for a window of the transform."""
    n, n1 = draw(st.sampled_from(SHAPES))
    return (n, n1, draw(st.integers(0, n - 1)), draw(st.integers(1, n1)),
            draw(st.integers(1, n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(window=_windows(), seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_ifft_matches_the_dense_transform(window, seed):
    n, n1, lo, width, n_out = window
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, width)
    full = np.zeros(n, dtype=np.complex128)
    full[(lo + np.arange(width)) % n] = x  # the window may wrap
    got = _pruned_ifft(x, lo, n, n1, n_out)
    assert got.shape == (n_out,)
    tol = 4.0 * np.finfo(np.float64).eps * math.log2(n) * np.abs(x).sum() / n
    assert np.abs(got - np.fft.ifft(full)[:n_out]).max() <= tol


def test_pruned_ifft_rejects_a_window_wider_than_n1():
    with pytest.raises(ValueError):
        _pruned_ifft(np.ones(N1_SMALL + 1), 0, N_SMALL, N1_SMALL, 8)


def _long_double_table(prof, ks):
    """The table's direct sum at indices ks, in extended precision."""
    dx = _grid_step(prof)
    n = np.arange(math.floor(0.5 / dx) - 8, math.ceil(2.0 / dx) + 9, dtype=np.int64)
    ld = np.longdouble
    x = prof._transform_values(n * dx).astype(ld)
    two_pi = 2 * ld("3.14159265358979323846264338327950288")
    scale = ld(2.0 * np.pi / (prof.DV / 2.0)) / two_pi / N_T
    out = np.empty(ks.size, dtype=np.complex128)
    for i, k in enumerate(ks):
        angle = two_pi * ((n * int(k)) % N_T).astype(ld) / N_T
        out[i] = complex(float(scale * np.sum(x * np.cos(angle))),
                         float(scale * np.sum(x * np.sin(angle))))
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than double here")
def test_table_agrees_with_a_long_double_direct_sum(prof):
    n_fine = 2 * int(round(prof.v_end / prof.DV)) + 1
    table = prof._table(n_fine)
    assert table.shape == (n_fine,)
    # k = 0 is the table's peak, so the comparison covers it
    ks = np.concatenate([[0], np.random.default_rng(7).integers(1, n_fine, 255)])
    assert np.abs(table[ks] - _long_double_table(prof, ks)).max() <= 5e-17


# ---------------------------------------------------------------------------
# contour-arc evaluation
# ---------------------------------------------------------------------------

_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than double here",
)


def _long_double_trapezoid(prof, w, x0, nx):
    """sum_n wts_n e^{i w (x_n - x0)} over the trapezoid nodes, each angle
    and exponential in extended precision."""
    xs, wts = prof._trap_nodes(nx)[:2]
    ld = np.longdouble
    shift = (xs - x0).astype(ld)  # exact: the nodes are multiples of 1.5/nx
    weights = wts.astype(ld)
    out = np.empty(w.size, dtype=np.complex128)
    for i, wi in enumerate(w):
        angle, decay = ld(wi.real) * shift, ld(wi.imag) * shift
        mod = weights * np.exp(-decay)
        out[i] = complex(float(np.sum(mod * np.cos(angle))), float(np.sum(mod * np.sin(angle))))
    return out


def _arc(radius, im_sign, count):
    """-radius e^{-i im_sign s} over s in (0, pi): `count` spread angles and
    two a hair from the ends, where w is nearly real and nothing decays;
    im_sign is the sign of Im w."""
    s = np.concatenate([[1e-4], np.linspace(0.05, np.pi - 0.05, count), [np.pi - 1e-4]])
    return -radius * np.exp(-1j * im_sign * s)


@_LONG_DOUBLE
@pytest.mark.parametrize("nx", [1024, 8192, 2 ** 18])
@pytest.mark.parametrize("x0", [0.5, 2.0, 0.0])
def test_eval_shifted_agrees_with_a_long_double_trapezoid(prof, nx, x0):
    # on the arc where every |e^{i w (x - x0)}| <= 1 (Im w >= 0 for x0 = 1/2
    # and 0, Im w <= 0 for x0 = 2) the radius is nx/4, the largest that
    # nx_for gives nx; on the other the kernel grows to e^{2 * 200} at most
    xs, wts = prof._trap_nodes(nx)[:2]
    count = 4 if nx == 2 ** 18 else 16
    bounded = 1.0 if x0 < 1.25 else -1.0
    for im_sign, radius in ((bounded, nx / 4.0), (-bounded, 200.0)):
        w = _arc(radius, im_sign, count)
        got = prof.eval_shifted(w, x0, nx)
        want = prof.scale / (2.0 * np.pi) * _long_double_trapezoid(prof, w, x0, nx)
        # the trapezoid rounding term the arc floors carry,
        # eps sqrt(nx) sum |wts| |scale| / (2 pi), relative to the largest
        # kernel modulus where it exceeds 1
        largest = np.exp(-np.outer(w.imag, xs[[0, -1]] - x0)).max(axis=1)
        bound = (np.finfo(np.float64).eps * math.sqrt(nx) * np.abs(wts).sum()
                 * abs(prof.scale) / (2.0 * np.pi) * np.maximum(largest, 1.0))
        assert np.all(np.abs(got - want) <= bound), (im_sign, radius)


# ---------------------------------------------------------------------------
# memory and floor guards
# ---------------------------------------------------------------------------

def test_build_peak_stays_under_150_mib():
    # 271 MB with a dense transform over the support window and a complex
    # band solve; about 112 MiB with the pruned transform and a real solve
    tracemalloc.start()
    try:
        PhiProfile(0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2 ** 20


def test_arc_panel_evaluation_peaks_under_16_mib(prof):
    # one 96-node panel at the largest trapezoid resolution, with its nodes
    # and weight blocks already built (as for every panel after an arc's
    # first); the dense kernel took 15 x 262,145 complex entries a block and
    # peaked at 182 MiB, the factored tables take about 3 MiB
    nx = 2 ** 18
    w = -(nx / 4.0) * np.exp(-1j * (0.3 + 0.2 * _gl01(96)[0]))
    prof.eval_shifted(w[:1], 0.5, nx)
    tracemalloc.start()
    try:
        prof.eval_shifted(w, 0.5, nx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("m, before", [(0.0625, 2.707255331752697e-15),
                                       (0.125, 2.74165101995756e-15)])
def test_spline_error_entering_the_floors_does_not_grow(m, before):
    # `before` is err_l1 with the dense transform and the complex band solve
    assert PhiProfile.cached(m).err_l1 <= before


@pytest.mark.parametrize("m, before", [(0.0625, 2.3828520597120197e-15),
                                       (0.125, 2.400565392471547e-15)])
def test_spline_error_stays_under_the_not_a_knot_spline(m, before):
    # `before` is err_l1 with the not-a-knot spline from a banded solve
    assert PhiProfile.cached(m).err_l1 <= before


def _bare_profile(m):
    # _derivative_masses reads only m, so no table is built
    profile = PhiProfile.__new__(PhiProfile)
    profile.m = m
    return profile


def test_derivative_masses_take_ten_inverse_transforms(monkeypatch):
    # nine masses on 2^17 points and the eighth alone on 2^16
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
    _bare_profile(0.125)._derivative_masses()
    assert len(calls) == 10


@pytest.mark.parametrize("m", [0.0, 0.125])
def test_derivative_masses_are_the_nine_order_formula_at_2_17(m):
    profile = _bare_profile(m)
    n = 2 ** 17
    dx = 2.5 / n
    spec = np.fft.fft(profile._transform_values(np.arange(n) * dx))
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    spec[np.abs(k) > 2400.0] = 0.0
    expected = np.empty(9)
    for j in range(9):
        expected[j] = dx * np.sum(np.abs(np.fft.ifft(spec * (1j * k) ** j).real))
    mass, deriv_l1 = profile._derivative_masses()
    assert mass.hex() == float(expected[0]).hex()
    assert deriv_l1.tobytes() == (1.05 * expected).tobytes()
