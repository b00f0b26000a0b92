"""Work that the solver and the sweeps compute once and reuse.

The Duhamel phases are memoised on their grid, the Picard iteration carries
each iterate's spectrum and interpolates its refined rows a block at a time
into reused scratch, each factor of the two-sided Leibniz sweep is
transformed once, and the sup-embedding sweep evaluates each field once per
scale.  Every reuse must give the bits of the straightforward computation,
and the memoised phases must not raise the memory a call needs.

Memory is measured with tracemalloc, which sees numpy's data buffers, so a
traced peak counts the frame stacks a call holds at once.  The bounds are the
peaks of the same calls in the implementation that rebuilt both phases on
every call (x86-64, Python 3.11, numpy 2.4.6).
"""

import math
import tracemalloc

import numpy as np

from nlsa_lab.estimates import (
    SpaceTimePacket,
    _PacketField,
    _sweep,
    check_leibniz_two_sided,
    check_smoothing,
    check_sup_embedding,
    random_spacetime_packets,
)
from nlsa_lab.norms import SpaceTimeField, mixed_norm_t_x, mixed_norm_x_t
from nlsa_lab.picard import (
    PicardConfig,
    _fine_rows,
    _refined_times,
    duhamel_apply,
    picard_iterate,
    reduction_preset,
    semigroup_evolve,
    soliton_oracle,
)
from nlsa_lab.spectral import Grid, GridFunction, apply_symbols

MIB = 2.0**20
# traced peaks when every call rebuilt both phases
APPLY_PEAK_BEFORE_MIB = 52.28
SMOOTHING_PEAK_BEFORE_MIB = 20.18
# a Picard solve's traced peak when each iteration formed the refined frame,
# u_x and cubic stacks (45.79 MiB); with u_x and the distance taken from the
# iterate's spectrum and the cubic formed in blocks it is 36.40 MiB
PICARD_PEAK_BEFORE_MIB = 46.0


def traced(call):
    """(peak, current) traced bytes of call(), counted from zero."""
    tracemalloc.start()
    try:
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


def nlsa_default_iterate():
    """An nlsa-default free-flow iterate on 2048 points and 128 nodes, on a fresh grid."""
    params = reduction_preset("nlsa-default")
    config = PicardConfig(horizon=0.02, time_nodes=128)
    source = Grid(2048, 60.0)
    u0 = GridFunction(source, np.exp(-source.x**2))
    free = semigroup_evolve(u0, config.times(), params)
    grid = Grid(2048, 60.0)  # no phases memoised yet
    return (
        SpaceTimeField(grid, free.times, free.frames.copy()),
        GridFunction(grid, u0.values.copy()),
        params,
    )


def apply_peak():
    u, u0, params = nlsa_default_iterate()
    return traced(lambda: duhamel_apply(u, u0, params))[0]


def smoothing_peak():
    fields = random_spacetime_packets(2, np.random.default_rng(0))
    return traced(lambda: check_smoothing(reduction_preset("mkdv"), fields=fields))


def test_duhamel_apply_peak_with_resident_phases():
    # the two phases (12 MiB) stay on the grid, yet the call needs less
    peak = apply_peak()
    assert peak <= APPLY_PEAK_BEFORE_MIB * MIB, peak / MIB


def test_nonlinearity_terms_take_no_frame_stack_of_their_own():
    # the product d |u|^2 u_x once took a refined frame stack (8 MiB) of its
    # own, and the same call peaked at 36.35 MiB
    peak = apply_peak()
    assert peak <= 34.0 * MIB, peak / MIB


def test_picard_iterate_peak_holds_no_refined_stack():
    # mkdv preset, 2048 points, 128 nodes, on a fresh grid so the
    # phases count too
    grid = Grid(2048, 60.0)
    u0 = GridFunction(grid, soliton_oracle("mkdv")(grid.x, 0.0))
    config = PicardConfig(horizon=0.05, time_nodes=128)
    peak = traced(lambda: picard_iterate(u0, reduction_preset("mkdv"), config))[0]
    assert peak <= PICARD_PEAK_BEFORE_MIB * MIB, peak / MIB


def test_smoothing_peak_and_phases_released():
    peak, current = smoothing_peak()
    assert peak <= SMOOTHING_PEAK_BEFORE_MIB * MIB, peak / MIB
    # the per-scale grids, and the 10 MiB of phases on them, are gone
    assert current < 0.25 * MIB, current / MIB


def test_duhamel_apply_reuses_phases_bit_for_bit():
    u, u0, params = nlsa_default_iterate()
    first = duhamel_apply(u, u0, params)
    phases = {d: held[1] for d, held in u.grid._flow_phases.items()}
    again = duhamel_apply(u, u0, params)
    assert all(u.grid._flow_phases[d][1] is phase for d, phase in phases.items())
    assert first.frames.tobytes() == again.frames.tobytes()
    fresh = Grid(2048, 60.0)
    cold = duhamel_apply(
        SpaceTimeField(fresh, u.times, u.frames), GridFunction(fresh, u0.values), params
    )
    assert cold.frames.tobytes() == first.frames.tobytes()


def test_refined_frames_match_the_interpolation_formula():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.1, 9)
    real = rng.standard_normal((9, 64)) + 0j  # zero imaginary parts keep their signs too
    mixed = rng.standard_normal((9, 64)) + 1j * rng.standard_normal((9, 64))
    # each interval's left node and midpoint, s = 2 rows an interval
    lam = np.arange(2) / 2
    for frames in (real, mixed):
        left = frames[:-1, None, :] * (1.0 - lam)[None, :, None]
        interp = left + frames[1:, None, :] * lam[None, :, None]
        expected = np.concatenate([interp.reshape(-1, 64), frames[-1:]], axis=0)
        # blocks of one, three and all eight intervals, the last one short
        for per_block in (1, 3, 8):
            out = np.empty((per_block * 2 + 1, 64), dtype=np.complex128)
            fine = np.concatenate([
                _fine_rows(frames, k0, min(k0 + per_block, 8), out).copy()
                for k0 in range(0, 8, per_block)
            ])
            assert fine.tobytes() == expected.tobytes()
        tau = _refined_times(times)
        assert tau.size == expected.shape[0]
        assert np.array_equal(tau[::2], times)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

def sup_embedding_as_evaluated_twice(fields, horizons=(1.0, 0.5, 0.25, 0.125)):
    """The sup-embedding sweep with its raw pairs recomputed for the ratios."""

    def raw_pairs(f, scale):
        grid = Grid(256 * scale, 60.0)
        pairs = []
        for horizon in horizons:
            times = np.linspace(0.0, horizon, 128 * scale + 1)
            modulations, spatial = f.factors(grid.x, times)
            quarter = apply_symbols(spatial, np.fft.ifftshift(np.abs(grid.xi) ** 0.25))[0]
            # the norms read |u|^2 from the factors, as the sweep's fields give it
            u = _PacketField(grid, times, modulations, spatial)
            du = _PacketField(grid, times, modulations, quarter)
            rhs = mixed_norm_x_t(u, 5, 10) + mixed_norm_x_t(du, 5, 10)
            pairs.append((horizon, mixed_norm_t_x(u, 5, math.inf), rhs))
        return pairs

    def fit_exponent(scale):
        worst = {h: 0.0 for h in horizons}
        for f in fields:
            for horizon, lhs, rhs in raw_pairs(f, scale):
                worst[horizon] = max(worst[horizon], lhs / rhs)
        points = [(math.log(h), math.log(r)) for h, r in worst.items()]
        return float(np.polyfit(*zip(*points), 1)[0])

    gains = {1: fit_exponent(1), 2: fit_exponent(2)}

    def evaluate(f, grid, times):
        scale = grid.num_points // 256
        return [(lhs, h ** gains[scale] * rhs) for h, lhs, rhs in raw_pairs(f, scale)]

    return _sweep("sup-embedding", evaluate, fields, 1, 0, None,
                  collapse=lambda base, fine: (base, fine, gains[1]))


def test_sup_embedding_samples_each_field_once_per_scale(monkeypatch):
    fields = random_spacetime_packets(3, np.random.default_rng(11))
    expected = sup_embedding_as_evaluated_twice(fields).to_dict()
    calls = []
    factors = SpaceTimePacket.factors
    monkeypatch.setattr(
        SpaceTimePacket, "factors", lambda self, x, t: calls.append(t.size) or factors(self, x, t)
    )
    result = check_sup_embedding(fields=fields)
    # one evaluation per field and scale, at the 4 horizons' times at once (sample
    # would evaluate the factors again): u and its quarter derivative are products
    # of them, and the fit and the ratios share the pairs
    assert sorted(calls) == [4 * 129] * 3 + [4 * 257] * 3
    assert result.to_dict() == expected


def two_sided_pair_row_by_row(f, g, scale):
    """(lhs, rhs) of one two-sided Leibniz pair from the packets' factors, one
    transform per multiplier and spatial row."""
    grid = Grid(256 * scale, 60.0)
    times = np.linspace(0.0, 1.0, 128 * scale + 1)
    d_all = np.fft.ifftshift(np.abs(grid.xi) ** 0.25)
    d_half = np.fft.ifftshift(np.abs(grid.xi) ** 0.125)
    mf, pf = f.factors(grid.x, times)
    mg, pg = g.factors(grid.x, times)
    pairs = [(a, b) for a in range(len(pf)) for b in range(len(pg))]
    # D(fg) - f Dg - g Df is the sum over (a, b) of mf[a] mg[b] times the
    # same defect of pf[a] pg[b]
    defect_rows = np.array([
        apply_symbols(pf[a] * pg[b], d_all)[0]
        - pf[a] * apply_symbols(pg[b], d_all)[0]
        - apply_symbols(pf[a], d_all)[0] * pg[b]
        for a, b in pairs
    ])
    time_rows = np.array([mf[a] * mg[b] for a, b in pairs])
    # the norms read |u|^2 from the factors, as the sweep's fields give it
    defect = _PacketField(grid, times, time_rows, defect_rows)
    lhs = mixed_norm_x_t(defect, 2.0, 2.0)
    half_f = _PacketField(grid, times, mf, np.array([apply_symbols(p, d_half)[0] for p in pf]))
    half_g = _PacketField(grid, times, mg, np.array([apply_symbols(q, d_half)[0] for q in pg]))
    first = mixed_norm_x_t(half_f, 4.0, 4.0)
    second = mixed_norm_x_t(half_g, 4.0, 4.0)
    return lhs, first * second


def test_leibniz_two_sided_transforms_each_factor_once(monkeypatch):
    rng = np.random.default_rng(13)
    pair = tuple(random_spacetime_packets(2, rng))
    base_lhs, base_rhs = two_sided_pair_row_by_row(*pair, 1)
    fine_lhs, fine_rhs = two_sided_pair_row_by_row(*pair, 2)
    forward = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: forward.append(1) or fft(*a, **k))
    result = check_leibniz_two_sided(fields=[pair])
    # product, f and g once each, at both scales
    assert len(forward) == 3 * 2
    assert result.lhs == [base_lhs] and result.rhs == [base_rhs]
    assert result.max_ratio_refined == fine_lhs / fine_rhs
