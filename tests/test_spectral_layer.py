"""The shared spectral paths: the one multiplier kernel, one-transform band
pieces, the Duhamel flow kernel and its memoised phases, batched norm
histories, and identities checked as properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsa_lab.norms import SpaceTimeField, l2_norm, mu_norms, sobolev_norm, xt_norm
from nlsa_lab.picard import nonlinearity_eval
from nlsa_lab.spectral import (
    BandRangeError,
    EquationParams,
    Grid,
    GridFunction,
    apply_symbols,
    dft_forward,
    duhamel_flow,
    eta,
    fractional_derivative,
    propagator_apply,
    qn_m_apply,
    qn_pieces,
    qn_resolvable,
    qn_symbol,
    spatial_derivative,
    weight_multiply,
)

SEED = 271828
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


def random_function(grid, rng):
    return GridFunction(
        grid, rng.standard_normal(grid.num_points) + 1j * rng.standard_normal(grid.num_points)
    )


def test_fft_order_frequencies_are_the_shifted_grid():
    g = Grid(2048, 37.0)
    assert np.array_equal(g.xi_fft, np.fft.ifftshift(g.xi))
    assert np.array_equal(g.xi, np.fft.fftshift(g.xi_fft))


def test_fft_order_frequencies_are_numpy_fftfreq_bit_for_bit():
    # the band kernel evaluates xi_fft a run at a time from its indices
    for num_points, length in ((2, 80.0), (1024, 16 * np.pi), (100_002, 80.0), (2**18, 60.0)):
        g = Grid(num_points, length)
        expected = 2 * np.pi * np.fft.fftfreq(num_points, d=g.spacing)
        assert g.xi_fft.tobytes() == expected.tobytes()


def test_pieces_equal_single_band_operator_bit_for_bit():
    g = Grid(1024, 16 * np.pi)
    F = random_function(g, np.random.default_rng(SEED))
    bands = range(-3, 9)  # resolvable bands plus truncated ones at both ends
    for m in (0.0, 0.125):
        seen = []
        for n, piece in qn_pieces(F, bands, m):
            seen.append(n)
            full_symbol = apply_symbols(F.values, np.fft.ifftshift(qn_symbol(g.xi, n, m)))[0]
            assert np.array_equal(piece, full_symbol)
            if qn_resolvable(g, n):
                assert np.array_equal(piece, qn_m_apply(F, n, m).values)
            else:  # the single-band operator refuses a band the grid truncates
                with pytest.raises(BandRangeError):
                    qn_m_apply(F, n, m)
        assert seen == list(bands)


def test_pieces_sum_to_identity_on_band_support():
    g = Grid(1024, 16 * np.pi)
    F = random_function(g, np.random.default_rng(SEED + 1))
    bands = [n for n in range(-20, 20) if qn_resolvable(g, n)]
    total = sum(piece.copy() for _, piece in qn_pieces(F, bands))
    ay = np.abs(g.xi_fft)
    inside = (ay >= 2.0 ** min(bands)) & (ay <= 2.0 ** max(bands))
    outside = (ay <= 2.0 ** (min(bands) - 1)) | (ay >= 2.0 ** (max(bands) + 1))
    spec, spec_total = np.fft.fft(F.values), np.fft.fft(total)
    scale = np.max(np.abs(spec))
    assert np.max(np.abs(spec_total[inside] - spec[inside])) < 1e-12 * scale
    assert np.max(np.abs(spec_total[outside])) < 1e-12 * scale


def test_batched_histories_equal_per_frame_norms():
    g = Grid(256, 30.0)
    rng = np.random.default_rng(SEED + 2)
    times = np.linspace(0.0, 0.5, 9)
    frames = (rng.standard_normal((9, 256)) + 1j * rng.standard_normal((9, 256))) * np.exp(
        -g.x**2 / 20
    )
    u = SpaceTimeField(g, times, frames)
    params = EquationParams(a=1.0, b=1.0, m=0.125, s=0.25)
    report = mu_norms(u, params)
    assert report.h_quarter_history == [sobolev_norm(u.frame(k), params.s) for k in range(9)]
    assert report.weighted_history == [
        l2_norm(weight_multiply(u.frame(k), params.m)) for k in range(9)
    ]
    assert all(type(v) is float for v in report.h_quarter_history + report.weighted_history)
    assert xt_norm(u, params) == report.x_norm


def test_duhamel_flow_linear_in_forcing():
    g = Grid(256, 40.0)
    rng = np.random.default_rng(SEED + 3)
    params = EquationParams(a=1.0, b=-0.5)
    tau = np.linspace(0.0, 0.3, 13)
    start = np.fft.fft(random_function(g, rng).values)
    f1, f2 = (rng.standard_normal((13, 256)) + 1j * rng.standard_normal((13, 256)) for _ in "ab")
    zero = np.zeros(256, dtype=complex)
    alpha, beta = 0.7 - 0.2j, -1.3
    for stride in (1, 2, 3):
        # the flow consumes its forcing, so f1 and f2 go in as copies
        combined = duhamel_flow(g, params, zero, tau, alpha * f1 + beta * f2, stride)
        separate = (alpha * duhamel_flow(g, params, zero, tau, f1.copy(), stride)
                    + beta * duhamel_flow(g, params, zero, tau, f2.copy(), stride))
        assert combined.shape == (tau[::stride].size, 256)
        assert np.max(np.abs(combined - separate)) < 1e-12 * np.max(np.abs(separate))
        # the data enters additively: free flow of the data plus the zero-data flow
        with_data = duhamel_flow(g, params, start, tau, f1.copy(), stride)
        split = duhamel_flow(g, params, start, tau[::stride]) + duhamel_flow(
            g, params, zero, tau, f1.copy(), stride
        )
        assert np.max(np.abs(with_data - split)) < 1e-12 * np.max(np.abs(with_data))


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------

grids = st.builds(
    Grid, st.sampled_from([64, 128, 256]), st.floats(5.0, 100.0, allow_nan=False)
)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_plancherel_property(grid, seed):
    f = random_function(grid, np.random.default_rng(seed))
    fhat = dft_forward(f)
    lhs = l2_norm(f) ** 2
    rhs = l2_norm(fhat) ** 2 / (2 * np.pi)
    assert abs(lhs - rhs) <= 1e-12 * lhs


@PROPERTY
@given(
    grid=grids,
    seed=seeds,
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    t1=st.floats(-1.0, 1.0),
    t2=st.floats(-1.0, 1.0),
)
def test_propagator_group_law_property(grid, seed, a, b, t1, t2):
    f = random_function(grid, np.random.default_rng(seed))
    params = EquationParams(a=a, b=b)
    twice = propagator_apply(propagator_apply(f, t1, params), t2, params)
    once = propagator_apply(f, t1 + t2, params)
    # phases reach |b| t nyquist^3 ~ 1e5 rad, so rounding is ~1e5 eps
    assert np.max(np.abs(twice.values - once.values)) < 1e-9 * np.max(np.abs(f.values))


@PROPERTY
@given(y=st.floats(1e-6, 1e6))
def test_partition_of_unity_property(y):
    total = sum(eta(np.array([y]) / 2.0**n)[0] for n in range(-25, 26))
    assert abs(total - 1.0) < 1e-12
    bands = sum(qn_symbol(np.array([-y, y]), n) for n in range(-25, 26))
    assert np.all(np.abs(bands - 1.0) < 1e-12)


def reference_duhamel_flow(grid, params, start_hat, tau, forcing_hat=None, stride=1):
    """duhamel_flow as it was before its phases were memoised: every call
    builds both phases and keeps the pulled forcing and the steps as stacks."""
    pol = params.a * grid.xi_fft**2 + params.b * grid.xi_fft**3
    if forcing_hat is None:
        held = start_hat[None, :]
    else:
        pulled = np.exp(-1j * tau[:, None] * pol[None, :]) * forcing_hat
        steps = np.diff(tau)[:, None] / 2.0 * (pulled[1:] + pulled[:-1])
        held = np.zeros(forcing_hat.shape, dtype=np.complex128)
        np.cumsum(steps, axis=0, out=held[1:])
        held = np.subtract(start_hat[None, :], held, out=held)[::stride]
    return np.exp(1j * tau[::stride, None] * pol[None, :]) * held


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@PROPERTY
@given(
    points=st.sampled_from([64, 128, 256]),
    length=st.floats(5.0, 100.0),
    seed=seeds,
    signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 1), (1, 0)]),
    sizes=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    nodes=st.integers(0, 150),
    horizon=st.floats(1e-3, 1.0),
    stride=st.sampled_from([1, 2]),
    forced=st.booleans(),
)
@example(128, 40.0, 1, (1, -1), (1.0, 1.0), 150, 0.3, 2, True)  # three pull-back blocks
@example(64, 10.0, 2, (1, 1), (0.5, 2.0), 0, 0.1, 1, True)  # a single time node
def test_duhamel_flow_memo_matches_unmemoised_formula_property(
    points, length, seed, signs, sizes, nodes, horizon, stride, forced
):
    # nodes above the pull-back block (64 rows) cross block boundaries
    grid = Grid(points, length)
    params = EquationParams(a=signs[0] * sizes[0], b=signs[1] * sizes[1])
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, horizon, nodes + 1)
    start = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    forcing = None
    if forced:
        forcing = rng.standard_normal((nodes + 1, points)) + 1j * rng.standard_normal(
            (nodes + 1, points)
        )

    def args(times):
        # the flow consumes its forcing, so every call takes a fresh copy
        return (start, times, forcing.copy(), stride) if forced else (start, times[::stride])

    expected = reference_duhamel_flow(grid, params, *args(tau))
    assert same_bits(duhamel_flow(grid, params, *args(tau)), expected)  # memo filled
    assert same_bits(duhamel_flow(grid, params, *args(tau)), expected)  # memo hit

    # a different time grid or coefficient pair on the same grid is a miss
    other_tau = tau * 0.5
    assert same_bits(
        duhamel_flow(grid, params, *args(other_tau)),
        reference_duhamel_flow(grid, params, *args(other_tau)),
    )
    other = EquationParams(a=params.b, b=-params.a)
    assert same_bits(
        duhamel_flow(grid, other, *args(tau)),
        reference_duhamel_flow(grid, other, *args(tau)),
    )
    assert same_bits(duhamel_flow(grid, params, *args(tau)), expected)
    if forced:
        # the output is written over the forcing, every stride-th row of it
        handed = forcing.copy()
        out = duhamel_flow(grid, params, start, tau, handed, stride)
        assert np.shares_memory(out, handed) and same_bits(handed[::stride], expected)


def test_duhamel_flow_memo_lives_on_the_grid():
    g = Grid(128, 30.0)
    params = EquationParams(a=1.0, b=-1.0)
    tau = np.linspace(0.0, 0.2, 9)
    start = np.ones(128, dtype=complex)
    forcing = np.ones((9, 128), dtype=complex)
    duhamel_flow(g, params, start, tau, forcing, 2)
    # the latest pull-back and forward phase only, invisible to eq and repr
    assert set(g._flow_phases) == {-1j, 1j}
    assert g._flow_phases[-1j][1].shape == (9, 128)
    assert g._flow_phases[1j][1].shape == (5, 128)
    assert g == Grid(128, 30.0)
    assert repr(g) == repr(Grid(128, 30.0))


def reference_nonlinearity(v, grid, params, full_derivative_mode):
    """nonlinearity_eval as it was before the multiplier kernel: the
    derivative symbol is the left operand of the spectral product."""
    def d_dx(values):
        return np.fft.ifft(1j * grid.xi_fft * np.fft.fft(values))

    mag2 = v.real**2 + v.imag**2
    cubic = mag2 * v
    if full_derivative_mode:
        return 1j * params.c * cubic + params.e * d_dx(cubic)
    du = d_dx(v)
    return 1j * params.c * cubic + params.d * mag2 * du + params.e * v**2 * np.conjugate(du)


@PROPERTY
@given(
    half=st.integers(1, 150),
    length=st.floats(5.0, 100.0),
    rows=st.integers(1, 4),
    complex_symbols=st.lists(st.booleans(), min_size=1, max_size=3),
    seed=seeds,
    coefficients=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
@example(1, 10.0, 1, [False], 0, (1.0, 2.0, 1.0))  # two points
@example(97, 40.0, 3, [True, False, True], 1, (0.5, -1.0, 0.25))  # 194 = 2 * 97 points
def test_one_multiplier_kernel_matches_the_formulas_property(
    half, length, rows, complex_symbols, seed, coefficients
):
    n = 2 * half
    grid = Grid(n, length)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stack = draw(rows, n)
    symbols = [draw(n) if c else rng.standard_normal(n) for c in complex_symbols]
    reference = [[np.fft.ifft(np.fft.fft(row) * s) for s in symbols] for row in stack]

    # a frame stack equals its rows taken one at a time, and the formula
    stacked = apply_symbols(stack, *symbols)
    for r, row in enumerate(stack):
        for k, applied in enumerate(apply_symbols(row, *symbols)):
            assert same_bits(applied, stacked[k][r])
            assert same_bits(applied, reference[r][k])

    # the callers that route through the kernel
    v, s = stack[0], symbols[0]
    f = GridFunction(grid, v)
    assert same_bits(apply_symbols(v, np.fft.ifftshift(np.fft.fftshift(s)))[0], reference[0][0])

    # the derivative symbol moved from the left operand to the right
    c, d, e = coefficients
    for full, params in ((False, EquationParams(a=1.0, b=1.0, c=c, d=d, e=e)),
                         (True, EquationParams(a=1.0, b=1.0, c=c, d=2 * e, e=e))):
        assert same_bits(
            nonlinearity_eval(f, params, full).values,
            reference_nonlinearity(v, grid, params, full),
        )


@PROPERTY
@given(
    half=st.integers(1, 300),
    length=st.floats(5.0, 100.0),
    seed=seeds,
    t=st.floats(-10.0, 10.0),
    dispersion=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    alpha=st.floats(0.0, 2.0),
    order=st.integers(0, 4),
)
def test_multiplier_wrappers_match_the_ascending_symbol_formula_property(
    half, length, seed, t, dispersion, alpha, order
):
    # each wrapper builds its symbol on xi_fft; the formula samples it over the
    # ascending xi and moves it to FFT order
    grid = Grid(2 * half, length)
    f = random_function(grid, np.random.default_rng(seed))
    a, b = dispersion
    xi = grid.xi
    for got, symbol in (
        (propagator_apply(f, t, EquationParams(a=a, b=b)),
         np.exp(1j * t * (a * xi**2 + b * xi**3))),
        (fractional_derivative(f, alpha), np.abs(xi) ** alpha),
        (spatial_derivative(f, order), (1j * xi) ** order),
    ):
        assert same_bits(got.values, apply_symbols(f.values, np.fft.ifftshift(symbol))[0])
