"""Tests for the inequality sweep harness.

Oracle policy: closed-form separable norms for the smoothing forcing, a
single-mode resolvent formula for the smoothed flow, hand frequency-side
algebra for the Leibniz defects, and exact single-mode ratios for the chain
rule.  Sweep maxima are only checked for boundedness and refinement
stability, never against theoretical constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsa_lab import estimates
from nlsa_lab.estimates import (
    BandCoverageWarning,
    EstimateSweepResult,
    SpaceTimePacket,
    WavePacket,
    check_chain_rules,
    check_commutator,
    check_leibniz_band,
    check_leibniz_two_sided,
    check_smoothing,
    check_sup_embedding,
    random_spacetime_packets,
    random_wave_packets,
)
from nlsa_lab.spectral import EquationParams, Grid, GridFunction, fractional_derivative


class PureMode:
    """Plane wave at an exact grid frequency; no envelope."""

    def __init__(self, coef, freq):
        self.coef, self.freq = coef, freq

    def sample(self, x):
        return self.coef * np.exp(1j * self.freq * np.asarray(x, dtype=float))


class PureModeInTime:
    """Separable plane wave with a prescribed time profile."""

    def __init__(self, coef, freq, profile=lambda t: np.ones_like(t)):
        self.coef, self.freq, self.profile = coef, freq, profile

    def factors(self, x, times):
        times = np.asarray(times, dtype=float)
        space = self.coef * np.exp(1j * self.freq * np.asarray(x, dtype=float))
        return self.profile(times).astype(np.complex128)[None, :], space[None, :]

    def sample(self, x, times):
        modulations, space = self.factors(x, times)
        return modulations[0][:, None] * space[0][None, :]


def grid_freq(index, length=60.0):
    return 2 * np.pi * index / length


# ---------------------------------------------------------------------------
# Packet generators.
# ---------------------------------------------------------------------------

def test_wave_packet_closed_form():
    pk = WavePacket((2.0 + 1j,), (1.5,), (2.0,), (0.5,))
    x = np.linspace(-5, 5, 11)
    expected = (2.0 + 1j) * np.exp(-(((x - 0.5) / 2.0) ** 2)) * np.exp(1j * 1.5 * x)
    assert np.max(np.abs(pk.sample(x) - expected)) < 1e-14


def test_spacetime_packet_separable():
    space = WavePacket((1.0 + 0j,), (2.0,), (1.0,), (0.0,))
    pkt = SpaceTimePacket((space,), (3.0,), (0.5,), (0.1,))
    x = np.linspace(-2, 2, 7)
    times = np.array([0.0, 0.2])
    frames = pkt.sample(x, times)
    for i, t in enumerate(times):
        expected = np.exp(-(((t - 0.1) / 0.5) ** 2)) * np.exp(3j * t) * space.sample(x)
        assert np.max(np.abs(frames[i] - expected)) < 1e-14


def test_generators_are_seed_stable_and_extendable():
    a = random_wave_packets(5, np.random.default_rng(3))
    b = random_wave_packets(10, np.random.default_rng(3))
    assert a == b[:5]
    c = random_spacetime_packets(4, np.random.default_rng(9))
    d = random_spacetime_packets(8, np.random.default_rng(9))
    assert c == d[:4]


def _assert_wave_packet_ranges(packet, components):
    assert len(packet.coefs) == len(packet.freqs) == components
    assert len(packet.widths) == len(packet.centers) == components
    assert all(1.0 <= abs(freq) <= 4.0 for freq in packet.freqs)
    assert all(1.0 <= width <= 4.0 for width in packet.widths)
    assert all(-6.0 <= center <= 6.0 for center in packet.centers)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_packet_families_stay_in_their_documented_ranges(seed):
    rng = np.random.default_rng(seed)
    for packet in random_wave_packets(4, rng):
        _assert_wave_packet_ranges(packet, 3)
    for packet in random_spacetime_packets(4, rng):
        assert len(packet.space) == len(packet.time_freqs) == 2
        assert len(packet.time_widths) == len(packet.time_centers) == 2
        for space in packet.space:
            _assert_wave_packet_ranges(space, 1)
        assert all(-6.0 <= freq <= 6.0 for freq in packet.time_freqs)
        assert all(0.3 <= width <= 1.0 for width in packet.time_widths)
        assert all(0.0 <= center <= 0.4 for center in packet.time_centers)


# ---------------------------------------------------------------------------
# Result bookkeeping.
# ---------------------------------------------------------------------------

def test_sweep_result_validation():
    with pytest.raises(ValueError, match="align"):
        EstimateSweepResult("x", 0, lhs=[1.0], rhs=[], ratios=[])
    with pytest.raises(ValueError, match="finite"):
        EstimateSweepResult("x", 0, lhs=[1.0], rhs=[0.0], ratios=[math.inf])
    with pytest.raises(ValueError, match="finite"):
        EstimateSweepResult("x", 0, lhs=[1.0], rhs=[1.0], ratios=[-0.5])
    res = EstimateSweepResult(
        "x", 0, lhs=[1.0], rhs=[2.0], ratios=[0.5], max_ratio=0.5, max_ratio_refined=0.55
    )
    assert res.sample_count == 1
    assert abs(res.drift - 0.1) < 1e-12
    assert set(res.to_dict()) >= {"name", "ratios", "max_ratio", "drift", "exponent_fit"}


def test_zero_samples_are_discarded():
    zero = WavePacket((0.0 + 0j,), (1.0,), (1.0,), (0.0,))
    live = WavePacket((1.0 + 0j,), (1.5,), (2.0,), (0.0,))
    res = check_commutator(fields=[zero, live])
    assert res.discarded == 1
    assert res.sample_count == 1


# ---------------------------------------------------------------------------
# The one pipeline every sweep runs through.
# ---------------------------------------------------------------------------

SWEEPS = {
    "smoothing": lambda **kw: check_smoothing(EquationParams(a=0.0, b=1.0), **kw),
    "sup-embedding": check_sup_embedding,
    "commutator": check_commutator,
    "leibniz-band": check_leibniz_band,
    "chain-rule": check_chain_rules,
    "leibniz-two-sided": check_leibniz_two_sided,
}
# sweep -> (grid points, time intervals, anchors) at the base scale
BASE_SCALES = {
    "smoothing": (256, 256, 0),
    "sup-embedding": (256, 128, 0),
    "commutator": (256, 128, 3),
    "leibniz-band": (512, 128, 3),
    "chain-rule": (256, 128, 0),
    "leibniz-two-sided": (256, 128, 0),
}


@pytest.mark.parametrize("samples", [0, -3, True, 2.5, None],
                         ids=["zero", "negative", "bool", "float", "none"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_a_sweep_without_samples_is_refused(name, samples):
    # with no samples both maxima read 0, which used to certify the sweep stable
    with pytest.raises(ValueError, match="samples"):
        SWEEPS[name](samples=samples)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None], ids=["negative", "float", "bool", "none"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_a_sweep_with_a_bad_seed_is_refused_by_name(name, seed):
    # numpy's own refusals ("expected non-negative integer", SeedSequence's
    # TypeError) named no parameter, and True ran as seed 1
    with pytest.raises(ValueError, match="seed"):
        SWEEPS[name](samples=2, seed=seed)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_a_sweep_over_no_fields_is_refused(name):
    with pytest.raises(ValueError, match="fields"):
        SWEEPS[name](fields=[])


@pytest.mark.filterwarnings("ignore::nlsa_lab.estimates.BandCoverageWarning")
@pytest.mark.parametrize("name", list(SWEEPS))
def test_each_scale_evaluates_every_field_on_one_grid(monkeypatch, name):
    points, nodes, anchors = BASE_SCALES[name]
    seen = []  # (grid, time count) per evaluated field; holding the grids keeps ids unique
    pipeline = estimates._sweep

    def recording_sweep(sweep_name, evaluate, *args, **kwargs):
        def recorded(f, grid, times):
            seen.append((grid, times.size))
            return evaluate(f, grid, times)

        return pipeline(sweep_name, recorded, *args, **kwargs)

    built = []
    monkeypatch.setattr(estimates, "_sweep", recording_sweep)
    monkeypatch.setattr(estimates, "Grid", lambda *args: built.append(Grid(*args)) or built[-1])
    SWEEPS[name](samples=2, seed=4)
    # the refinement rule: anchors plus 2 draws, then anchors plus 4
    assert len(seen) == (anchors + 2) + (anchors + 4)
    scales = ((1, seen[:anchors + 2]), (2, seen[anchors + 2:]))
    for scale, evaluated in scales:
        grid = evaluated[0][0]
        assert all(other is grid for other, _ in evaluated)
        assert (grid.num_points, grid.length) == (points * scale, 60.0)
        assert {size for _, size in evaluated} == {nodes * scale + 1}
    # and no evaluate builds a grid of its own
    assert len(built) == 2 and built[0] is seen[0][0] and built[1] is seen[-1][0]


# ---------------------------------------------------------------------------
# Smoothing sweep.
# ---------------------------------------------------------------------------

def test_smoothing_requires_third_order_dispersion():
    with pytest.raises(ValueError, match="third-order"):
        check_smoothing(EquationParams(a=1.0, b=0.0))


def test_smoothing_rhs_matches_separable_closed_form():
    # single separable component: ||f||_{L1_x L2_T} = int|g| dx * ||h||_{L2_T}
    coef, width, center, tw, tc = 1.3, 2.0, 0.5, 0.5, 0.3
    space = WavePacket((coef + 0j,), (2.0,), (width,), (center,))
    pkt = SpaceTimePacket((space,), (4.0,), (tw,), (tc,))
    horizon = 1.0
    res = check_smoothing(EquationParams(a=0.0, b=1.0), fields=[pkt])
    space_l1 = coef * width * math.sqrt(math.pi)
    scale = tw / 2.0 * math.sqrt(math.pi / 2.0)
    time_l2 = math.sqrt(
        scale
        * (math.erf(math.sqrt(2.0) * (horizon - tc) / tw) + math.erf(math.sqrt(2.0) * tc / tw))
    )
    assert res.sample_count == 1
    assert abs(res.rhs[0] - space_l1 * time_l2) < 1e-4 * space_l1 * time_l2


def test_smoothing_single_mode_resolvent_oracle():
    # constant-in-time forcing at one frequency: the integral has closed form
    freq = grid_freq(20)
    pkt = PureModeInTime(1.0, freq)
    res = check_smoothing(EquationParams(a=0.0, b=1.0), fields=[pkt])
    p = freq**3
    times = np.linspace(0.0, 1.0, 257)  # the sweep's 256 time intervals
    lhs_hand = math.sqrt(60.0) * abs(freq) * np.max(np.abs(np.exp(1j * times * p) - 1.0)) / p
    assert res.sample_count == 1
    assert abs(res.lhs[0] - lhs_hand) < 1e-3 * lhs_hand


def test_smoothing_sweep_bounded_and_stable():
    res = check_smoothing(EquationParams(a=0.0, b=1.0), samples=15, seed=5)
    assert res.sample_count == 15
    assert 0 < res.max_ratio < math.inf
    assert res.refinement_stable
    assert res.discarded <= 0.05 * (res.sample_count + res.discarded)


# ---------------------------------------------------------------------------
# Embedding sweep.
# ---------------------------------------------------------------------------

def test_sup_embedding_gain_exponent_positive():
    res = check_sup_embedding(samples=8, seed=2)
    assert res.exponent_fit > 0
    assert res.max_ratio < math.inf
    assert res.refinement_stable


# ---------------------------------------------------------------------------
# Commutator sweep.
# ---------------------------------------------------------------------------

def test_commutator_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        check_commutator(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        check_commutator(alpha=1.5)


def test_zero_order_commutator_vanishes():
    # D^0 is the identity, so multiplying before or after is the same thing
    grid = Grid(256, 60.0)
    f = random_wave_packets(1, np.random.default_rng(4))[0].sample(grid.x)
    phi = np.tanh(grid.x)
    inner = fractional_derivative(GridFunction(grid, phi * f), 0.0).values
    outer = phi * fractional_derivative(GridFunction(grid, f), 0.0).values
    assert np.max(np.abs(outer - inner)) < 1e-13 * np.max(np.abs(f))


def test_commutator_sweep_bounded_and_stable():
    res = check_commutator(samples=20, seed=11)
    assert 0 < res.max_ratio < math.inf
    assert res.refinement_stable
    assert all(r >= 0 for r in res.ratios)


# ---------------------------------------------------------------------------
# Band-sum Leibniz sweep.
# ---------------------------------------------------------------------------

def test_leibniz_band_single_mode_hand_ratio():
    # f, g pure modes: LHS = | |k0+k1|^a - |k0|^a | * |A| * sqrt(L) and the
    # band sum telescopes to |A| |k1|^a by the partition of unity
    alpha = 0.25
    k0, k1 = grid_freq(5), grid_freq(30)
    amp = 0.8
    res = check_leibniz_band(
        alpha=alpha, fields=[(PureMode(1.0, k0), PureMode(amp, k1))]
    )
    hand_lhs = abs(abs(k0 + k1) ** alpha - k0**alpha) * amp * math.sqrt(60.0)
    hand_rhs = amp * k1**alpha * math.sqrt(60.0)
    assert res.sample_count == 1
    assert abs(res.lhs[0] - hand_lhs) < 1e-10 * hand_lhs
    assert abs(res.rhs[0] - hand_rhs) < 1e-6 * hand_rhs
    assert abs(res.ratios[0] - hand_lhs / hand_rhs) < 1e-6
    assert res.refinement_stable


def test_leibniz_band_zero_second_factor_discarded():
    res = check_leibniz_band(fields=[(PureMode(1.0, grid_freq(8)), PureMode(0.0, grid_freq(4)))])
    assert res.sample_count == 0 and res.discarded == 1


def test_leibniz_band_coverage_warning():
    high = PureMode(1.0, grid_freq(220))  # above the covered dyadic range
    with pytest.warns(BandCoverageWarning) as record:
        check_leibniz_band(fields=[(PureMode(1.0, grid_freq(5)), high)])
    # one warning per sweep, naming the caller's line
    (warning,) = [w for w in record if w.category is BandCoverageWarning]
    assert warning.filename == __file__


def test_leibniz_band_sweep_bounded_and_stable():
    res = check_leibniz_band(samples=20, seed=3)
    assert 0 < res.max_ratio < math.inf
    assert res.refinement_stable


# ---------------------------------------------------------------------------
# Chain-rule sweep.
# ---------------------------------------------------------------------------

def test_chain_rule_single_mode_slice_ratio_is_one():
    pkt = PureModeInTime(1.0, grid_freq(12), profile=lambda t: np.exp(-((t - 0.4) ** 2)))
    res = check_chain_rules(fields=[pkt])
    # first ratio of the sample is the peak-slice ratio
    assert abs(res.ratios[0] - 1.0) < 1e-10
    assert res.ratios[1] <= 1.0 + 1e-10


def test_chain_rule_sweep_bounded_and_stable():
    res = check_chain_rules(samples=10, seed=8)
    assert res.sample_count == 20  # two ratios per sample
    assert 0 < res.max_ratio < math.inf
    assert res.refinement_stable
    with pytest.raises(ValueError, match="alpha"):
        check_chain_rules(alpha=2.0)


# ---------------------------------------------------------------------------
# Two-sided Leibniz sweep.
# ---------------------------------------------------------------------------

def test_two_sided_sweep_bounded_and_stable():
    res = check_leibniz_two_sided(samples=10, seed=1)
    assert 0 < res.max_ratio < math.inf
    assert res.refinement_stable
