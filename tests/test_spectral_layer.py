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
    _duhamel_integral,
    _row_blocks,
    _rows_per_block,
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
    params = EquationParams(a=1.0, b=1.0, m=0.125)
    report = mu_norms(u, params)
    assert report.h_quarter_history == [sobolev_norm(u.frame(k), 0.25) for k in range(9)]
    assert report.weighted_history == [
        l2_norm(weight_multiply(u.frame(k), params.m)) for k in range(9)
    ]
    assert all(type(v) is float for v in report.h_quarter_history + report.weighted_history)
    assert xt_norm(u, params) == report.x_norm


def streamed_integral(grid, params, tau, forcing_hat, block):
    """The streamed Duhamel integral of the forcing stack forcing_hat,
    assembled from its blocks."""
    blocks = _duhamel_integral(grid, params, tau,
                               lambda rows, out: np.copyto(out, forcing_hat[rows]), block)
    return np.concatenate([h.copy() for _, h in blocks])


def test_duhamel_flow_linear_in_forcing():
    g = Grid(256, 40.0)
    rng = np.random.default_rng(SEED + 3)
    params = EquationParams(a=1.0, b=-0.5)
    tau = np.linspace(0.0, 0.3, 13)
    start = np.fft.fft(random_function(g, rng).values)
    f1, f2 = (rng.standard_normal((13, 256)) + 1j * rng.standard_normal((13, 256)) for _ in "ab")
    alpha, beta = 0.7 - 0.2j, -1.3
    for block in (1, 2, 3, 13):
        combined = streamed_integral(g, params, tau, alpha * f1 + beta * f2, block)
        separate = (alpha * streamed_integral(g, params, tau, f1, block)
                    + beta * streamed_integral(g, params, tau, f2, block))
        assert combined.shape == (13, 256)
        assert np.max(np.abs(combined - separate)) < 1e-12 * np.max(np.abs(separate))
        # the data enters additively: free flow of the data plus the zero-data
        # flow, each pushed by the conjugate of the pull-back phase
        push = np.conjugate(g._flow_memo[1])
        with_data = push * (start[None, :] - streamed_integral(g, params, tau, f1, block))
        split = duhamel_flow(g, params, start, tau) + push * (
            0.0 - streamed_integral(g, params, tau, f1, block)
        )
        assert np.max(np.abs(with_data - split)) < 1e-12 * np.max(np.abs(with_data))


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------

grids = st.builds(
    Grid, st.sampled_from([64, 128, 256]), st.floats(5.0, 100.0, allow_nan=False)
)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(count=st.integers(1, 600), block=st.integers(1, 40), points=st.integers(1, 2**22),
       start=st.integers(0, 2**21))
@example(1, 1, 1, 0)
@example(2, 1, 2**14, 0)  # a last row that would stand alone joins the block before it
@example(41, 40, 2**15, 3)
@example(600, 40, 2**22, 0)
# band_sum_report's window at 2^20 points, |x| <= 20: its last point joins the run before it
@example(2**19 + 1, 2**15, 2**20, 2**18)
def test_the_one_block_rule_property(count, block, points, start):
    # the rule under the streamed Duhamel kernel, Picard's producer and the
    # composite norm's images, on which their bit pins rest
    spans = list(_row_blocks(count, block))
    assert [i for span in spans for i in range(span.start, span.stop)] == list(range(count))
    for span in spans:
        assert span.step is None and span.start % block == 0
        assert 1 <= span.stop - span.start <= block + 1
        # no row stands alone but a block of one: the last one joins its neighbour
        assert span.stop - span.start > 1 or count == 1 or (block == 1 and span is not spans[-1])
    # from a start, the band loops' runs: the same spans, shifted, so they
    # cover range(start, start + count) and are cut at start + k*block
    shifted = list(_row_blocks(start + count, block, start))
    assert shifted == [slice(span.start + start, span.stop + start) for span in spans]
    rows = _rows_per_block(points)
    assert rows % 2 == 0 and 2 <= rows <= max(2, 2**19 / (16 * points))


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


def reference_duhamel_flow(grid, params, start_hat, tau, forcing_hat=None):
    """The forced flow as it was before its phases were memoised and its
    integral streamed, as (flow, integral): every call builds both phases
    and keeps the pulled forcing, the steps and the integral as stacks.
    Without forcing the integral is None and the flow is the free flow."""
    pol = params.a * grid.xi_fft**2 + params.b * grid.xi_fft**3
    push = np.exp(1j * tau[:, None] * pol[None, :])
    if forcing_hat is None:
        return push * start_hat[None, :], None
    pulled = np.exp(-1j * tau[:, None] * pol[None, :]) * forcing_hat
    steps = np.diff(tau)[:, None] / 2.0 * (pulled[1:] + pulled[:-1])
    held = np.zeros(forcing_hat.shape, dtype=np.complex128)
    np.cumsum(steps, axis=0, out=held[1:])
    return push * (start_hat[None, :] - held), held


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
    forced=st.booleans(),
)
@example(128, 40.0, 1, (1, -1), (1.0, 1.0), 150, 0.3, True)  # ten blocks of 16 rows
@example(64, 10.0, 2, (1, 1), (0.5, 2.0), 0, 0.1, True)  # a single time node
@example(64, 10.0, 3, (1, -1), (1.0, 1.0), 1, 0.1, True)  # two time nodes
def test_duhamel_flow_memo_matches_unmemoised_formula_property(
    points, length, seed, signs, sizes, nodes, horizon, forced
):
    # the streamed integral, in blocks of 1, 3 and 16 rows and in one block
    # of the whole horizon, against the long-hand trapezoid bit for bit; the
    # free flow against the long-hand push
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

    def check(params, times, expected=None):
        flow, integral = reference_duhamel_flow(grid, params, start, times, forcing)
        if not forced:
            assert same_bits(duhamel_flow(grid, params, start, times), flow)
            return flow
        for block in (1, 3, 16, times.size):
            assert same_bits(streamed_integral(grid, params, times, forcing, block), integral)
        return integral

    expected = check(params, tau)  # memo filled
    assert same_bits(check(params, tau), expected)  # memo hit
    # a different time grid or coefficient pair on the same grid is a miss
    check(params, tau * 0.5)
    check(EquationParams(a=params.b, b=-params.a), tau)
    assert same_bits(check(params, tau), expected)


def test_duhamel_flow_memo_lives_on_the_grid():
    g = Grid(128, 30.0)
    params = EquationParams(a=1.0, b=-1.0)
    tau = np.linspace(0.0, 0.2, 9)
    start = np.ones(128, dtype=complex)
    streamed_integral(g, params, tau, np.ones((9, 128), dtype=complex), 4)
    duhamel_flow(g, params, start, tau[::2])
    # the latest pull-back phase only, which the free flow's push conjugates,
    # invisible to eq and repr
    key, phase = g._flow_memo
    assert key[-1] == tau[::2].tobytes() and phase.shape == (5, 128)
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
