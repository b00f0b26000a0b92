"""Transform conventions, multiplier algebra, and dyadic band cutoffs."""

import math

import numpy as np
import pytest

from nlsa_lab.spectral import (
    BandRangeError,
    EquationParams,
    Grid,
    GridFunction,
    dft_forward,
    dft_inverse,
    eta,
    fractional_derivative,
    propagator_apply,
    qn_apply,
    qn_m_apply,
    qn_pieces,
    qn_resolvable,
    smooth_step,
    weight_multiply,
)

RNG_SEED = 20260814


def l2(f):
    return np.sqrt(f.grid.spacing * np.sum(np.abs(f.values) ** 2))


def random_bandlimited(grid, rng, band_fraction=0.3):
    """Random field whose spectrum fills |xi| <= band_fraction * nyquist."""
    coeffs = np.zeros(grid.num_points, dtype=complex)
    keep = np.abs(grid.xi) <= band_fraction * grid.nyquist
    coeffs[keep] = rng.standard_normal(keep.sum()) + 1j * rng.standard_normal(keep.sum())
    return dft_inverse(GridFunction(grid.conjugate(), coeffs * grid.length / grid.num_points))


@pytest.mark.parametrize("args, name", [
    ((8, math.nan), "length"),
    ((8, math.inf), "length"),
    ((8.0, 10.0), "num_points"),
], ids=["length-nan", "length-inf", "float-points"])
def test_grid_refuses_non_finite_length_and_non_integer_points_naming_the_field(args, name):
    # a NaN length makes x all NaN, and the weight rule indexes the origin by num_points // 2
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        Grid(*args)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1023, 80.0)
    with pytest.raises(ValueError):
        Grid(1024, -1.0)
    g = Grid(1024, 80.0)
    assert g.spacing * g.num_points == pytest.approx(g.length)
    # symmetric frequencies, Nyquist on the negative end only
    xi = g.xi
    assert xi[0] == pytest.approx(-g.nyquist)
    for k in xi[np.abs(xi) < g.nyquist * 0.999]:
        if k != 0:
            assert np.any(np.isclose(xi, -k))


def test_gridfunction_shape_checked():
    g = Grid(64, 10.0)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(65))


def test_forward_zero_and_single_mode():
    g = Grid(256, 16 * np.pi)
    zero = GridFunction(g, np.zeros(g.num_points))
    assert np.all(dft_forward(zero).values == 0)

    xi1 = g.xi[g.num_points // 2 + 16]  # an exact grid frequency
    f = GridFunction(g, np.exp(1j * xi1 * g.x))
    fhat = dft_forward(f)
    k = np.argmax(np.abs(fhat.values))
    assert fhat.grid.x[k] == pytest.approx(xi1)
    assert fhat.values[k] == pytest.approx(g.length)
    rest = np.abs(fhat.values).sum() - np.abs(fhat.values[k])
    assert rest < 1e-9 * g.length


def test_forward_gaussian_oracle():
    g = Grid(1024, 80.0)
    f = GridFunction(g, np.exp(-g.x**2 / 2))
    fhat = dft_forward(f)
    exact = np.sqrt(2 * np.pi) * np.exp(-fhat.grid.x**2 / 2)
    assert np.max(np.abs(fhat.values - exact)) < 1e-10


def test_inverse_roundtrip_and_constant():
    g = Grid(512, 40.0)
    rng = np.random.default_rng(RNG_SEED)
    f = random_bandlimited(g, rng)
    back = dft_inverse(dft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    zero = GridFunction(g.conjugate(), np.zeros(g.num_points))
    assert np.all(dft_inverse(zero).values == 0)

    # single transform bin at xi=0 with value length -> constant 1
    coeffs = np.zeros(g.num_points, dtype=complex)
    coeffs[g.num_points // 2] = g.length  # xi = 0 sits mid-array
    const = dft_inverse(GridFunction(g.conjugate(), coeffs))
    assert np.max(np.abs(const.values - 1.0)) < 1e-12


def test_plancherel():
    g = Grid(1024, 80.0)
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        f = random_bandlimited(g, rng)
        fhat = dft_forward(f)
        lhs = l2(f) ** 2
        rhs = l2(fhat) ** 2 / (2 * np.pi)
        assert abs(lhs - rhs) < 1e-10 * lhs


def test_propagator_identity_and_phase_wrap():
    g = Grid(256, 16 * np.pi)
    rng = np.random.default_rng(RNG_SEED + 2)
    f = random_bandlimited(g, rng)
    p = EquationParams(a=1.0, b=1.0)
    out = propagator_apply(f, 0.0, p)
    assert np.max(np.abs(out.values - f.values)) < 1e-13

    # a=1, b=1, xi0=2, t=pi/6: phase t*(4+8) = 2*pi wraps to the identity
    mode = GridFunction(g, np.exp(2j * g.x))
    out = propagator_apply(mode, np.pi / 6, p)
    assert np.max(np.abs(out.values - mode.values)) < 1e-12


def test_propagator_unitary_and_group_law():
    g = Grid(512, 40.0)
    rng = np.random.default_rng(RNG_SEED + 3)
    p = EquationParams(a=0.7, b=-1.3)
    for _ in range(10):
        f = random_bandlimited(g, rng)
        u1 = propagator_apply(f, 0.35, p)
        assert abs(l2(u1) - l2(f)) < 1e-10 * l2(f)
        u2 = propagator_apply(u1, 0.65, p)
        direct = propagator_apply(f, 1.0, p)
        assert np.max(np.abs(u2.values - direct.values)) < 1e-10 * np.max(np.abs(direct.values))


def test_propagator_gaussian_against_quadrature():
    g = Grid(1024, 80.0)
    f = GridFunction(g, np.exp(-g.x**2 / 2))
    p = EquationParams(a=0.0, b=1.0)
    t = 0.5
    out = propagator_apply(f, t, p)
    # direct oscillatory quadrature of the inversion integral
    xi = np.linspace(-14, 14, 200001)
    ghat = np.sqrt(2 * np.pi) * np.exp(-(xi**2) / 2)
    for x in (-3.0, -1.0, 0.0, 1.5, 4.0):
        j = np.argmin(np.abs(g.x - x))
        ref = np.trapezoid(ghat * np.exp(1j * (t * xi**3 + g.x[j] * xi)), xi) / (2 * np.pi)
        assert abs(out.values[j] - ref) < 1e-6 * abs(ref)


def test_fractional_derivative():
    g = Grid(256, 16 * np.pi)
    k = 2.0  # on-grid frequency (spacing of xi is 1/8)
    f = GridFunction(g, np.sin(k * g.x))
    d1 = fractional_derivative(f, 1.0)
    assert np.max(np.abs(d1.values - k * np.sin(k * g.x))) < 1e-11

    rng = np.random.default_rng(RNG_SEED + 4)
    f = random_bandlimited(g, rng)
    assert np.max(np.abs(fractional_derivative(f, 0.0).values - f.values)) < 1e-13
    twice = fractional_derivative(fractional_derivative(f, 0.5), 0.5)
    once = fractional_derivative(f, 1.0)
    assert np.max(np.abs(twice.values - once.values)) < 1e-10 * np.max(np.abs(once.values))


def test_multipliers_commute():
    g = Grid(512, 40.0)
    rng = np.random.default_rng(RNG_SEED + 6)
    f = random_bandlimited(g, rng)
    p = EquationParams(a=1.0, b=1.0)
    ab = propagator_apply(fractional_derivative(f, 0.25), 0.3, p)
    ba = fractional_derivative(propagator_apply(f, 0.3, p), 0.25)
    assert np.max(np.abs(ab.values - ba.values)) < 1e-12 * np.max(np.abs(ab.values))


def test_eta_support_and_partition():
    assert eta(np.array([0.5])) == 0
    assert eta(np.array([2.0])) == 0
    assert eta(np.array([1.0])) == pytest.approx(1.0)
    y = np.array([0.49, 0.5, 2.0, 2.3, -1.0, 0.0])
    assert np.all(eta(y)[np.abs(y - 1) > 0.6] == 0)

    x = np.logspace(-4, 4, 1000)
    total = sum(eta(x / 2.0**N) for N in range(-16, 17))
    assert np.max(np.abs(total - 1.0)) < 1e-12

    u = np.linspace(-1, 2, 301)
    st = smooth_step(u)
    assert np.all(st[u <= 0] == 0) and np.all(st[u >= 1] == 1)
    assert np.all(np.diff(st[(u > 0) & (u < 1)]) >= 0)
    assert np.all(np.diff(st[(u > 0.1) & (u < 0.9)]) > 0)


def test_qn_band_range_errors():
    g = Grid(1024, 16 * np.pi)
    F = GridFunction(g, np.exp(-g.x**2))
    for N in (25, -25):
        assert not qn_resolvable(g, N)
        with pytest.raises(BandRangeError):
            qn_apply(F, N)
        with pytest.raises(BandRangeError):
            qn_m_apply(F, N, 0.125)
        # the piece truncated to the grid (here vanishing) comes from qn_pieces
        ((_, out),) = qn_pieces(F, [N])
        assert np.max(np.abs(out)) < 1e-12


def test_qn_reproduces_band_limited_input():
    g = Grid(256, 16 * np.pi)
    # conjugate content exactly at |y| = 2^N where the eta-sum equals 1
    N = 1
    coeffs = np.zeros(g.num_points, dtype=complex)
    conj = g.conjugate().x
    coeffs[np.argmin(np.abs(conj - 2.0))] = 1.0
    coeffs[np.argmin(np.abs(conj + 2.0))] = 0.5
    F = dft_inverse(GridFunction(g.conjugate(), coeffs))
    out = qn_apply(F, N)
    assert np.max(np.abs(out.values - F.values)) < 1e-12 * np.max(np.abs(F.values))


def test_qn_partition_sum():
    g = Grid(1024, 16 * np.pi)
    rng = np.random.default_rng(RNG_SEED + 7)
    F = GridFunction(g, rng.standard_normal(g.num_points) + 1j * rng.standard_normal(g.num_points))
    total = np.zeros(g.num_points, dtype=complex)
    for _, piece in qn_pieces(F, range(-20, 21)):
        total += piece
    # the sum reproduces F minus its conjugate-side mean mode
    mean_mode = np.mean(F.values)
    assert np.max(np.abs(total - (F.values - mean_mode))) < 1e-8


def test_qn_m_matches_qn_at_m_zero_and_single_bin():
    g = Grid(256, 16 * np.pi)
    rng = np.random.default_rng(RNG_SEED + 8)
    F = GridFunction(g, rng.standard_normal(g.num_points) + 1j * rng.standard_normal(g.num_points))
    a = qn_apply(F, 2)
    b = qn_m_apply(F, 2, 0.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-13

    # single conjugate bin y0=2.5 inside band N=1 scales by |2^-N y0|^m eta(2^-N y0)
    conj = g.conjugate().x
    k = np.argmin(np.abs(conj - 2.5))
    y0 = conj[k]
    coeffs = np.zeros(g.num_points, dtype=complex)
    coeffs[k] = 1.0
    F = dft_inverse(GridFunction(g.conjugate(), coeffs))
    m = 0.125
    out = qn_m_apply(F, 1, m)
    factor = (y0 / 2.0) ** m * eta(np.array([y0 / 2.0]))[0]
    assert np.max(np.abs(out.values - factor * F.values)) < 1e-12 * abs(factor)


def test_qn_fractional_identity():
    g = Grid(16384, 64 * np.pi)
    rng = np.random.default_rng(RNG_SEED + 9)
    m = 0.125
    for trial in range(20):
        F = random_bandlimited(g, rng, band_fraction=0.5)
        N = int(rng.integers(-3, 7))
        lhs = qn_apply(fractional_derivative(F, m), N)
        rhs = qn_m_apply(F, N, m)
        scale = np.max(np.abs(lhs.values))
        if scale == 0:
            continue
        assert np.max(np.abs(lhs.values - 2.0 ** (N * m) * rhs.values)) < 1e-9 * scale


def test_weight_multiply():
    n, length = 131072, 30.0
    g = Grid(n, length)
    f = GridFunction(g, np.exp(-g.x**2 / 2))
    assert np.max(np.abs(weight_multiply(f, 0.0).values - f.values)) == 0

    w = weight_multiply(f, 0.5)
    val = g.spacing * np.sum(np.abs(w.values) ** 2)  # = int |x| exp(-x^2) dx = 1
    assert abs(val - 1.0) < 1e-8


def test_weighted_norm_transform_equivalence():
    g = Grid(2048, 80.0)
    rng = np.random.default_rng(RNG_SEED + 10)
    m = 0.125
    for _ in range(20):
        f = random_bandlimited(g, rng, band_fraction=0.25)
        # localize so |x|^m f is still boundary-negligible
        f = GridFunction(g, f.values * np.exp(-g.x**2 / 50))
        lhs = l2(weight_multiply(f, m))
        rhs = l2(fractional_derivative(dft_forward(f), m)) / np.sqrt(2 * np.pi)
        assert 0.5 < lhs / rhs < 2.0
        assert abs(lhs / rhs - 1.0) < 1e-6


def test_dealias():
    # the 2/3 rule is the mask the Duhamel map multiplies each nonlinearity spectrum by
    g = Grid(256, 16 * np.pi)
    mask = g.dealias_mask
    assert np.array_equal(mask, np.abs(g.xi_fft) <= (2 / 3) * g.nyquist)
    assert mask[0]                      # the zero mode is kept
    assert not mask[g.num_points // 2]  # the Nyquist mode, xi_fft = -nyquist, is dropped


@pytest.mark.parametrize("kwargs, name", [
    ({"a": math.nan}, "a"),
    ({"b": -math.inf}, "b"),
    ({"c": math.nan}, "c"),
    ({"d": complex(0.0, math.inf)}, "d"),
    ({"e": complex(math.nan, 0.0)}, "e"),
], ids=["a-nan", "b-inf", "c-nan", "d-infj", "e-nan"])
def test_equation_params_refuse_non_finite_values_naming_the_field(kwargs, name):
    # a NaN c or an infinite d used to reach the solver, which advised
    # shrinking the horizon
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        EquationParams(**{"a": 1.0, "b": 1.0, **kwargs})


def test_equation_params_validation():
    with pytest.raises(ValueError):
        EquationParams(a=0.0, b=1.0, m=1.5)
    EquationParams(a=-1.0, b=0.0, c=-2.0)  # no third-order dispersion is allowed
    q = EquationParams(a=1.0, b=1.0, c=1.0, d=2.0, e=1.0)
    assert q.full_derivative_ok
    assert not EquationParams(a=1.0, b=1.0, d=1.0, e=1.0).full_derivative_ok
