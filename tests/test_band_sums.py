"""The band-sum kernel: arguments checked up front, bits kept, memory bounded.

band_sum_report and the leibniz-band sweep accumulate their band sums through
one kernel, which evaluates each band symbol on its support slices a run at a
time and sums over a window only.  The oracles below are the straightforward
formula it replaces: every band on the full grid, its support found with
boolean masks over |xi|, and the interior picked out with a boolean mask.

The kernel consumes the spectrum it is given: the top band's piece is formed
and transformed back in the spectrum's own buffer, after the modes the lower
bands read are copied into a compact low spectrum, and each lower band is
formed from that copy into the same buffer.  Its memory is the spectrum, the
compact copy (40% of the grid at 2^21) and two window arrays (the top band's
terms and the sums), besides pocketfft's own scratch of two N-point complex
arrays per transform.

Memory is measured with tracemalloc, which sees numpy's data buffers but not
pocketfft's scratch.  A warm 2^18-point report peaked at 32.7 MiB with the
full-grid formula, at 11.79 MiB (2.95 complex arrays) with a separate piece
buffer next to the spectrum, and at 10.13 MiB (2.53 arrays) with the spectrum
reused as the piece (x86-64, Python 3.11, numpy 2.4.6).  The bound is 2.75
arrays (11 MiB), so a second full-size buffer held again fails.
"""

import math
import tracemalloc

import numpy as np
import pytest

from nlsa_lab.estimates import (
    _BASE_POINTS,
    WavePacket,
    _sweep,
    check_leibniz_band,
    random_wave_packets,
)
from nlsa_lab.norms import l2_norm
from nlsa_lab.oscillatory import band_sum_report, intermediate_count
from nlsa_lab.spectral import Grid, GridFunction, apply_symbols, qn_bands, qn_symbol

MIB = 2.0**20
# the full-grid formula's traced peak for one warm 2^18-point report
FULL_GRID_PEAK_MIB = 32.7


def masked_band_pieces(grid, values, bands, m):
    """Yield (N, Q_N^m values), each band's support found by masks over |xi|."""
    spec = np.fft.fft(values)
    ay = np.abs(grid.xi_fft)
    for n in bands:
        support = np.flatnonzero((ay > 2.0 ** (n - 1)) & (ay < 2.0 ** (n + 1)))
        piece = np.zeros_like(spec)
        piece[support] = spec[support] * qn_symbol(ay[support], n, m)
        yield n, np.fft.ifft(piece)


def full_grid_band_sums(a, b, t, m, num_points):
    """(sums, band_sups, sup, tail_fraction) of band_sum_report on the full grid."""
    grid = Grid(num_points, 80.0)
    x = grid.x
    g = np.exp(1j * (t * (a * x * x + b * x**3))) * (1.0 + x * x) ** (-m)
    bands = qn_bands(grid)
    interior = np.abs(x) <= 80.0 * 0.25
    total = np.zeros(num_points)
    band_sups = {}
    for n, piece in masked_band_pieces(grid, g, bands, m):
        term = np.abs(piece)
        term *= 2.0 ** (n * m)
        total += term
        band_sups[n] = float(term[interior].max())
    tail = (band_sups[bands[-1]] + band_sups[bands[-2]]) / sum(band_sups.values())
    return total[interior], band_sups, float(total[interior].max()), float(tail)


# 32 points resolve the two bands [-2, -1]: the top band and one lower band
@pytest.mark.parametrize("num_points", [32, 2**14, 100_002])
@pytest.mark.parametrize("m", [0.0, 0.125])
@pytest.mark.parametrize("a, b, t", [(0.0, 1.0, 1.0), (1.0, 1.0, 4.0), (1.0, -1.0, 0.5)])
def test_band_sums_match_the_full_grid_formula_bit_for_bit(a, b, t, m, num_points):
    sums, band_sups, sup, tail_fraction = full_grid_band_sums(a, b, t, m, num_points)
    rep = band_sum_report(a, b, t, m, num_points=num_points)
    assert rep.sums.tobytes() == sums.tobytes()
    assert {n: v.hex() for n, v in rep.band_sups.items()} == {
        n: v.hex() for n, v in band_sups.items()
    }
    assert rep.sup.hex() == sup.hex()
    assert rep.tail_fraction.hex() == tail_fraction.hex()


def leibniz_band_pair_on_the_full_grid(pair, grid, times):
    """(lhs, rhs) of one leibniz-band sample, its band sum over masked supports."""
    f, g = pair
    fv, gv = f.sample(grid.x), g.sample(grid.x)
    d_alpha = np.abs(grid.xi_fft) ** 0.25
    df, dg, dfg = (apply_symbols(v, d_alpha)[0] for v in (fv, gv, fv * gv))
    lhs = l2_norm(GridFunction(grid, dfg - gv * df))
    band_abs = np.zeros(grid.num_points)
    for _, piece in masked_band_pieces(grid, dg, qn_bands(grid), 0.0):
        band_abs += np.abs(piece)
    return [(lhs, float(np.max(band_abs)) * l2_norm(GridFunction(grid, fv)))]


@pytest.mark.filterwarnings("ignore::nlsa_lab.estimates.BandCoverageWarning")
def test_leibniz_band_matches_the_full_grid_formula():
    rng = np.random.default_rng(17)
    mono = WavePacket((1.0 + 0j,), (1.0,), (1.0,), (0.0,))
    fields = [(mono, mono)] + list(zip(random_wave_packets(4, rng), random_wave_packets(4, rng)))
    expected = _sweep("leibniz-band", leibniz_band_pair_on_the_full_grid, fields, 1, 0, None,
                      points=2 * _BASE_POINTS)
    assert check_leibniz_band(fields=fields).to_dict() == expected.to_dict()


@pytest.mark.filterwarnings("error::nlsa_lab.estimates.BandCoverageWarning")
def test_the_leibniz_band_sweep_reads_its_coverage_from_the_unconsumed_spectrum():
    # the band sums consume the spectrum they are given; read after them,
    # the coverage saw the top band's piece and warned on 66 of 66 samples
    check_leibniz_band(samples=20, seed=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: band_sum_report(0, 1, 1, 0.125, num_points=16), "num_points"),
        (lambda: band_sum_report(0, 1, 1, 0.125, num_points=2), "num_points"),
        (lambda: band_sum_report(0, 1, math.nan, 0.125), "t"),
        (lambda: band_sum_report(0, 1, math.inf, 0.125), "t"),
        (lambda: band_sum_report(0, math.inf, 1, 0.125), "b"),
        (lambda: band_sum_report(0, math.nan, 1, 0.125), "b"),
        (lambda: band_sum_report(math.nan, 1, 1, 0.125), "a"),
        (lambda: band_sum_report(-math.inf, 1, 1, 0.125), "a"),
        (lambda: band_sum_report(0, 1, 1, math.nan), "m"),
        (lambda: band_sum_report(0, 1, 1, 1.0), "m"),
        (lambda: band_sum_report(0, 1, 1, -0.125), "m"),
        (lambda: band_sum_report(0, 1e-300, 1e-300, 0.125), "t"),
        (lambda: band_sum_report(1e300, 1e-300, 1, 0.125), "a"),
        (lambda: intermediate_count(1, 0, 1, math.nan), "t"),
        (lambda: intermediate_count(1, 0, 1, math.inf), "t"),
        (lambda: intermediate_count(math.nan, 0, 1, 1), "xi"),
        (lambda: intermediate_count(1e200, 0, 1, 1), "xi"),
    ],
    ids=[
        "one-band", "no-band", "t-nan", "t-inf", "b-inf", "b-nan", "a-nan", "a-inf",
        "m-nan", "m-one", "m-negative", "scale-underflow", "scale-overflow",
        "count-t-nan", "count-t-inf", "count-xi-nan", "count-overflow",
    ],
)
def test_bad_arguments_are_named_before_any_transform(monkeypatch, call, name):
    transforms = []
    fft, ifft = np.fft.fft, np.fft.ifft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: transforms.append(1) or fft(*a, **k))
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: transforms.append(1) or ifft(*a, **k))
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()
    assert transforms == []


def test_warm_report_peak_stays_under_two_and_three_quarter_complex_arrays():
    def report():
        band_sum_report(0.0, 1.0, 1.0, 0.125, num_points=2**18)

    report()  # imports, plans and caches
    tracemalloc.start()
    try:
        report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**18 * 16, peak / MIB
    assert peak < FULL_GRID_PEAK_MIB * MIB
