"""The inner L^q integrands skip libm's subnormal path and change no norm.

The norms raise |u|^2 to q/2, and |u|^q counts as 0 where
|u|^2 < 2^(-2044/q), the rule |u| < 2^(-1022/q) on the square: glibc's pow
is tens of times slower on a result below float64's normal range, and the
Gaussian tails of the estimate sweeps' space-time packets put whole rows
there.  On such packets the mixed norms must keep every bit of the unflushed
formulas, (|u|^2)^(q/2) of the squared moduli of the frames, raised by
products where q/2 is an integer; a field whose every power is subnormal
reads 0, as the norms module documents.  A packet's L^2-in-time integrals
are read by a Gram contraction of its factors, never from |u|^2.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nlsa_lab.estimates import _PacketField, _outer_rows, random_spacetime_packets
from nlsa_lab.norms import (
    SpaceTimeField,
    _flushed_power,
    _space_inner,
    _time_inner,
    _trapezoid_weights,
    mixed_norm_t_x,
    mixed_norm_x_t,
)
from nlsa_lab.spectral import Grid

# the sup-embedding and chain-rule sweeps' base grid
GRID = Grid(256, 60.0)
TINY = 2.0 ** -1022
EPS = np.finfo(float).eps


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=np.float64)).view(np.uint64)


def _unflushed_power(u, q):
    """(|u|^2)^(q/2) at every node and point, |u|^2 the squared modulus; the
    norms raise (|u|^2)^5 by products, ((|u|^2)^2)^2 |u|^2."""
    sq = np.abs(u.frames) ** 2
    if q == 10:
        square = sq * sq
        return square * square * sq
    return sq ** (q / 2)


def _time_integral(u, q):
    """The unflushed per-point integral of |u|^q in t, by the same weight vector."""
    return _trapezoid_weights(u.times) @ _unflushed_power(u, q)


def _space_inner_unflushed(u, p):
    return (u.grid.spacing * np.sum(_unflushed_power(u, p), axis=1)) ** (1.0 / p)


def _packet_fields():
    packets = random_spacetime_packets(6, np.random.default_rng(1))
    for packet in packets:
        for horizon in (1.0, 0.125):
            times = np.linspace(0.0, horizon, 129)
            yield SpaceTimeField(GRID, times, packet.sample(GRID.x, times))


@pytest.mark.parametrize("q", [10, 5, 4, 2.5, 2])
def test_inner_norms_keep_the_unflushed_bits_on_underflowing_packets(q):
    subnormal = 0
    for u in _packet_fields():
        power = _unflushed_power(u, q)
        subnormal += np.count_nonzero((power > 0) & (power < TINY))

        # each time node's row holds the packet's bulk
        np.testing.assert_array_equal(_bits(_space_inner(u, q)),
                                      _bits(_space_inner_unflushed(u, q)))
        # the flushed terms are below 2^-1022, far under the last bit of an
        # integral of 2^-900 or more; below that they only drop terms
        integral = _time_integral(u, q)
        got = _time_inner(u, q)
        want = integral ** (1.0 / q)
        normal = integral >= 2.0 ** -900
        np.testing.assert_array_equal(_bits(got[normal]), _bits(want[normal]))
        assert np.all(got[~normal] <= want[~normal])

        # the norms the sweeps read
        x_t = (GRID.spacing * np.sum(want ** 5)) ** (1.0 / 5)
        assert mixed_norm_x_t(u, 5, q).hex() == float(x_t).hex()
        t_x = (_trapezoid_weights(u.times) @ _space_inner_unflushed(u, q) ** 5) ** (1.0 / 5)
        assert mixed_norm_t_x(u, 5, q).hex() == float(t_x).hex()
    assert subnormal > 0  # the tails do reach the subnormal range


def test_an_all_subnormal_power_reads_zero():
    # |u|^10 = 1e-310 at every point: subnormal, so the integrands count as 0
    times = np.linspace(0.0, 1.0, 9)
    u = SpaceTimeField(GRID, times, np.full((times.size, GRID.num_points), 1e-31 + 0j))
    assert 0.0 < 1e-31 ** 10 < TINY
    assert np.all(_time_integral(u, 10) > 0.0)  # the unflushed formula's reading
    _assert_positive_zero(_time_inner(u, 10))
    _assert_positive_zero(_space_inner(u, 10))
    assert mixed_norm_x_t(u, 5, 10) == 0.0
    assert mixed_norm_t_x(u, 5, 10) == 0.0
    # a power inside the normal range is kept
    assert _time_inner(SpaceTimeField(GRID, times, np.full_like(u.frames, 1e-30)), 10).min() > 0


def _assert_positive_zero(values):
    assert np.all(values == 0.0) and not np.any(np.signbit(values))


def test_space_time_packet_sample_is_the_sum_of_its_outer_products():
    # the sum over components of modulation (outer) spatial row, taken as
    # one (T x r)(r x N) product
    packet = random_spacetime_packets(1, np.random.default_rng(3))[0]
    times = np.linspace(0.0, 0.5, 65)
    modulations = np.array([
        np.exp(-(((times - center) / width) ** 2)) * np.exp(1j * freq * times)
        for freq, width, center in zip(packet.time_freqs, packet.time_widths,
                                       packet.time_centers)
    ])
    spatial = np.array([space.sample(GRID.x) for space in packet.space])
    want = modulations.T @ spatial
    got = packet.sample(GRID.x, times)
    assert got.shape == want.shape and got.dtype == np.complex128
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# every (p, q) a sweep or the fixed-point norm reads, as x_t (then t_x) pairs
MIXED_NORMS = [(mixed_norm_x_t, 5, 10), (mixed_norm_x_t, 2.0, 2.0), (mixed_norm_x_t, 4.0, 4.0),
               (mixed_norm_x_t, 1, 2), (mixed_norm_x_t, math.inf, 2), (mixed_norm_x_t, 20, 2.5),
               (mixed_norm_x_t, 4, math.inf), (mixed_norm_t_x, 5, math.inf),
               (mixed_norm_t_x, math.inf, 2)]


def _cancelling_field(m, p):
    """The field m (x) p - m (x) p = 0, in factor form: rows (m, m) and (p, -p)."""
    times = np.linspace(0.0, 1.0, m.size)
    return _PacketField(GRID, times, np.array([m, m]), np.array([p, -p]))


def _norms_without_warnings(u):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return [norm(u, p, q) for norm, p, q in MIXED_NORMS]


def test_an_exactly_cancelling_field_reads_positive_zero():
    # dyadic factors of few bits: every product and sum is exact, so the
    # factor product's |u|^2 is exactly 0
    rng = np.random.default_rng(2)
    dyadic = lambda size: (rng.integers(-8, 9, size) + 1j * rng.integers(-8, 9, size)) / 16
    u = _cancelling_field(dyadic(129), dyadic(GRID.num_points))
    assert not np.any(u.abs_squared())
    for value in _norms_without_warnings(u):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_a_cancelling_packet_reads_its_rounding_and_no_warning():
    # on a packet's factors the cancellation leaves rounding residues of
    # both signs, at most (r^2 + 5) eps S^2 = 9 eps S^2 with S = 2 |m| |p|
    # (the factor product's share of the bound in test_separable_images);
    # the negative ones flush, so every norm is at most that of 3 sqrt(eps) S;
    # the L^2_T norms read the Gram contraction, whose worst case grows with
    # the 129 nodes (test_the_gram_read_agrees_with_the_frames_modulus), and
    # its residues stay within the same bound here (at most 0.65 sqrt(eps))
    modulations, spatial = random_spacetime_packets(1, np.random.default_rng(1))[0].factors(
        GRID.x, np.linspace(0.0, 1.0, 129))
    u = _cancelling_field(modulations[0], spatial[0])
    assert np.any(u.abs_squared() < 0.0)
    envelope = SpaceTimeField(u.grid, u.times, 2.0 * np.outer(np.abs(modulations[0]),
                                                              np.abs(spatial[0])))
    noise = 3.0 * math.sqrt(np.finfo(float).eps)
    for value, (norm, p, q) in zip(_norms_without_warnings(u), MIXED_NORMS):
        assert 0.0 <= value <= noise * norm(envelope, p, q)


# ---------------------------------------------------------------------------
# L^2 in time by the Gram contraction
# ---------------------------------------------------------------------------

def _gram_bound(m, p, weights):
    """The bound of test_the_gram_read_agrees_with_the_frames_modulus at every
    grid point, for factor rows m (r x T, |m| <= 1) and p (r x N)."""
    r, nodes = m.shape
    horizon = float(np.sum(weights))
    envelope = np.abs(m).T @ np.abs(p)
    spread = np.sum(np.abs(p), axis=0)
    relative = (3 * nodes + 2 * r**2 + 2 * r + 20) * EPS * (weights @ envelope**2)
    absolute = ((4 * horizon + nodes) * spread**2 + 3 * r * horizon * spread
                + (2 * r**2 + 1) * horizon + r**2 + nodes) * 2.0 ** -1074
    return relative + absolute


def _gram_fields():
    """(label, m, p) factor rows: sums of 1 to 4 packets, the chain rule's
    rank-8 rows of |u|^2 u, on both sweep grids and two time grids."""
    for num_points, nodes in ((256, 129), (512, 257), (128, 17)):
        grid = Grid(num_points, 60.0)
        times = np.linspace(0.0, 1.0, nodes)
        for seed, count in ((1, 1), (2, 2), (3, 4)):
            factors = [f.factors(grid.x, times)
                       for f in random_spacetime_packets(count, np.random.default_rng(seed))]
            m = np.concatenate([mf for mf, _ in factors])
            p = np.concatenate([pf for _, pf in factors])
            yield f"{num_points}x{nodes} rank {len(m)}", grid, times, m, p
            if count == 1:
                yield (f"{num_points}x{nodes} cubic", grid, times,
                       _outer_rows(_outer_rows(m, m.conj()), m),
                       _outer_rows(_outer_rows(p, p.conj()), p))


def test_the_gram_read_agrees_with_the_frames_modulus():
    """A packet's L^2_T integrals, sum_t w_t |u(t, x)|^2, are read from its
    factors as (w @ time rows) @ space rows, the r^2 Hermitian rows of each
    (estimates._hermitian_rows), and the reference is w @ |m^T p|^2 of the
    frames.  The bound is written down before the comparison.

    Take r factor rows with |m_c| <= 1, T nodes, horizon h = sum_t w_t,
    S = sum_c |m_c| |p_c| at a node and a point, P = sum_c |p_c| at a point,
    and eps as a bound on one operation's relative rounding.  Give each of
    the r^2 terms the size of its factors' moduli: |m_a|^2 |p_a|^2 for the
    diagonal ones, 2 |m_a| |m_b| |p_a| |p_b| for a pair's Re and Im terms;
    the sizes sum to at most 2 S^2.  A Hermitian entry is off by at most
    2 eps of its size's time or space factor; the weighted sum over the T
    nodes adds (T + 1) eps; the product with a space entry adds 3 eps and the
    sum of the r^2 terms r^2 eps, so the Gram read is off by at most
    (T + r^2 + 6) eps 2 sum_t w_t S^2.  The reference's |u|^2 is off by at
    most (2 r + 7) eps S^2 at each node (test_separable_images), and its
    weighted sum adds (T + 1) eps.  The two differ by at most

        (3 T + 2 r^2 + 2 r + 20) eps sum_t w_t S^2.

    Below float64's normal range a product rounds by at most eta = 2^-1075
    absolutely: the time entries (at most 4 eta, and at most 2 in modulus)
    and their weighted sum carry (4 h + T) eta, which multiplies
    sum_k |S_k| <= 2 P^2; the space entries carry 2 eta times
    sum_k |g_k| <= 2 r^2 h, and the r^2 products eta each.  The reference
    carries (6 r S + 2) eta at a node (test_separable_images), S <= P, and
    its T weighted products eta each.  So the bound gains

        ((4 h + T) P^2 + 3 r h P + (2 r^2 + 1) h + r^2 + T) 2^-1074,

    which counts only at the tails of the chain rule's cubic rows.  Clipping
    the read at 0 moves it only towards the reference, which is >= 0.
    """
    for label, grid, times, m, p in _gram_fields():
        weights = _trapezoid_weights(times)
        u = _PacketField(grid, times, m, p)
        got = u.time_squares(weights)
        want = weights @ (np.abs(m.T @ p) ** 2)
        assert got.shape == want.shape and np.all(got >= 0.0), label
        assert np.all(np.abs(got - want) <= _gram_bound(m, p, weights)), label
        # the L^2_T norm is its square root, and no |u|^2 was formed
        np.testing.assert_array_equal(_bits(_time_inner(u, 2)), _bits(got ** 0.5))
        assert u._abs_squared is None, label


def test_the_gram_read_of_a_cancelling_packet_is_its_rounding():
    # m (x) p - m (x) p has exactly 0 frames; the Gram read of its factors is
    # the rounding of a sum of terms up to 4 |m|^2 |p|^2, within the bound
    # above with S = 2 |m| |p|, and clipped at 0
    modulations, spatial = random_spacetime_packets(1, np.random.default_rng(1))[0].factors(
        GRID.x, np.linspace(0.0, 1.0, 129))
    u = _cancelling_field(modulations[0], spatial[0])
    weights = _trapezoid_weights(u.times)
    got = u.time_squares(weights)
    assert np.all(got >= 0.0) and np.any(got > 0.0)
    m, p = np.array([modulations[0]] * 2), np.array([spatial[0], -spatial[0]])
    assert np.all(got <= _gram_bound(m, p, weights))


def test_frame_fields_keep_the_flushed_time_squares_bits():
    # a frame stack's L^2_T read is the weighted sum of its flushed squares
    for u in _packet_fields():
        weights = _trapezoid_weights(u.times)
        sq = u.abs_squared()
        want = weights @ np.where(sq < TINY, 0.0, sq)
        np.testing.assert_array_equal(_bits(u.time_squares(weights)), _bits(want))


# ---------------------------------------------------------------------------
# integer powers by products
# ---------------------------------------------------------------------------

def _product_chain(sq, k):
    """(sq^k, the operands of its multiplies) long-hand, as the norms chain
    them: sq^2 = sq sq, sq^5 = (sq^2)^2 sq, sq^10 = sq^5 sq^5."""
    square = sq * sq
    if k == 2:
        return square, [sq]
    fifth = (square * square) * sq
    if k == 5:
        return fifth, [sq, square, square * square]
    return fifth * fifth, [sq, square, square * square, fifth]


# relative rounding of each chain: the powers (1 + delta) of its multiplies'
# roundings sum to 1, 4 and 9 (sq^5 carries delta_2^2 delta_4 delta_5)
_CHAIN_ROUNDINGS = {2: 1, 5: 4, 10: 9}


@pytest.mark.parametrize("k", [2, 5, 10])
def test_integer_powers_are_products_within_their_rounding(k):
    q = 2 * k
    threshold = 2.0 ** (-2044.0 / q)
    rng = np.random.default_rng(k)
    # log-uniform from the flush threshold to where sq^k nears overflow, the
    # threshold's neighbours on both sides, and 1
    above = threshold + np.spacing(threshold) * np.arange(40)
    below = threshold - np.spacing(threshold) * np.arange(1, 9)
    sq = np.concatenate([
        np.exp2(rng.uniform(math.log2(threshold), 1000.0 / k, 2000)), above, below, [1.0],
    ])
    got = _flushed_power(sq, q)

    # below the threshold the power reads +0
    flushed = sq < threshold
    assert np.all(flushed[-9:-1]) and not np.any(flushed[:-9])
    _assert_positive_zero(got[flushed])

    # at and above it, the long-hand chain's bits, within its rounding of sq^k
    # (an absolute 2^-1075 covers a last product that rounds in the subnormal
    # binade just below 2^-1022, whose spacing is that of the binade above)
    power, operands = _product_chain(sq[~flushed], k)
    np.testing.assert_array_equal(_bits(got[~flushed]), _bits(power))
    relative = (1 + Fraction(EPS) / 2) ** _CHAIN_ROUNDINGS[k] - 1
    for value, x in zip(power, sq[~flushed]):
        exact = Fraction(float(x)) ** k
        assert abs(Fraction(float(value)) - exact) <= relative * exact + Fraction(2.0 ** -1075)

    # no multiply sees a subnormal operand, and every result whose exact
    # power is clear of 2^-1022 by more than the chain's rounding is normal;
    # the threshold's float lies a little below 2^(-2044/q) for q = 10 and 20,
    # so the first few floats above it raise a power just under 2^-1022, as
    # pow did
    for operand in operands:
        assert np.all(operand >= TINY)
    exact_clear = np.array([Fraction(float(x)) ** k >= Fraction(TINY) * (1 + 2 * relative)
                            for x in sq[~flushed]])
    assert np.all(power[exact_clear] >= TINY)
    assert np.all(sq[~flushed][~exact_clear] < threshold * (1.0 + 2.0 ** -40))
