"""The inner L^q integrands skip libm's subnormal path and change no norm.

The norms raise |u|^2 to q/2, and |u|^q counts as 0 where
|u|^2 < 2^(-2044/q), the rule |u| < 2^(-1022/q) on the square: glibc's pow
is tens of times slower on a result below float64's normal range, and the
Gaussian tails of the estimate sweeps' space-time packets put whole rows
there.  On such packets the mixed norms must keep every bit of the unflushed
formulas, (|u|^2)^(q/2) of the squared moduli of the frames; a field whose
every power is subnormal reads 0, as the norms module documents.
"""

import math
import warnings

import numpy as np
import pytest

from nlsa_lab.estimates import _PacketField, random_spacetime_packets
from nlsa_lab.norms import (
    SpaceTimeField,
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


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=np.float64)).view(np.uint64)


def _unflushed_power(u, q):
    """(|u|^2)^(q/2) at every node and point, |u|^2 the squared modulus."""
    sq = np.abs(u.frames) ** 2
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


@pytest.mark.parametrize("q", [10, 5, 2.5])
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
    # the negative ones flush, so every norm is at most that of 3 sqrt(eps) S
    modulations, spatial = random_spacetime_packets(1, np.random.default_rng(1))[0].factors(
        GRID.x, np.linspace(0.0, 1.0, 129))
    u = _cancelling_field(modulations[0], spatial[0])
    assert np.any(u.abs_squared() < 0.0)
    envelope = SpaceTimeField(u.grid, u.times, 2.0 * np.outer(np.abs(modulations[0]),
                                                              np.abs(spatial[0])))
    noise = 3.0 * math.sqrt(np.finfo(float).eps)
    for value, (norm, p, q) in zip(_norms_without_warnings(u), MIXED_NORMS):
        assert 0.0 <= value <= noise * norm(envelope, p, q)
