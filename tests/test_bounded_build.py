"""The profile build holds no full-size temporary past its last reader, and
every value it produces is bit-identical to the layouts it replaced.

The prefilter's blocked layout is written straight into the transposed view
(no sequence-order extension and no transposing copy), each pruned-FFT chunk
is transformed in place in one buffer, and the table is split into the
prefilter's even samples and the validation's odd ones before the prefilter
allocates.  The replaced implementations are kept here as references and the
new ones must match them bit for bit; the build's outputs are pinned by
float.hex and sha256, recorded on x86-64 with Python 3.11.7 and numpy 2.4.6
(the table comes from pocketfft).  Memory is measured with tracemalloc, which
sees numpy's data buffers.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsa_lab.oscillatory import (
    _PREFILTER_BLOCK,
    _QUINTIC_POLES,
    PhiProfile,
    _causal_pass,
    _blocked_extension,
    _prefilter,
    _pruned_ifft,
)
from nlsa_lab.picard import PicardConfig, picard_iterate, reduction_preset, soliton_oracle
from nlsa_lab.spectral import Grid, GridFunction


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


# ---------------------------------------------------------------------------
# the replaced layouts, as references
# ---------------------------------------------------------------------------

def _quintic_coefficients_ext(knots):
    """The prefilter through a sequence-order extension `ext` and its
    transposed copy."""
    n = knots.size
    size = _PREFILTER_BLOCK
    first = size + n - 1
    ext = np.zeros(-(-(2 * n - 1 + 2 * size) // size) * size, dtype=np.complex128)
    ext[first:first + n] = knots
    ext[size:first] = np.conjugate(knots[:0:-1])
    blocks = ext.view(np.float64).reshape(-1, size, 2).transpose(1, 0, 2).copy()
    for z in _QUINTIC_POLES:
        _causal_pass(blocks, z)
        _causal_pass(blocks[::-1, ::-1, ::-1], z)
    blocks *= ((1.0 - _QUINTIC_POLES[0]) * (1.0 - _QUINTIC_POLES[1])) ** 2
    lo, hi = (first - 2) // size, -(-(first + n + 3) // size)
    seq = blocks[:, lo:hi].transpose(1, 0, 2).reshape(-1).view(np.complex128)
    return seq[first - 2 - lo * size:][:n + 5]


def _pruned_ifft_out_of_place(x, lo, n, n1, n_out):
    """The pruned transform with a new np.fft.ifft output per chunk."""
    n2 = n // n1
    keep = -(-n_out // n2)
    idx = lo + np.arange(x.size, dtype=np.int64)
    turn = 2.0j * np.pi / n
    chunk = min(n2, 64)
    fine = np.multiply(turn, (np.arange(chunk, dtype=np.int64)[:, None] * idx) % n)
    np.exp(fine, out=fine)
    start = lo % n1
    split = min(x.size, n1 - start)
    out = np.empty((keep, n2), dtype=np.complex128)
    buf = np.zeros((chunk, n1), dtype=np.complex128)
    for k2 in range(0, n2, chunk):
        rows = min(chunk, n2 - k2)
        coarse = np.exp(np.multiply(turn, (k2 * idx) % n))
        coarse *= x
        np.multiply(fine[:rows, :split], coarse[:split], out=buf[:rows, start:start + split])
        np.multiply(fine[:rows, split:], coarse[split:], out=buf[:rows, :x.size - split])
        out[:, k2:k2 + rows] = np.fft.ifft(buf[:rows], axis=1)[:, :keep].T
    out = out.reshape(-1)[:n_out]
    out /= n2
    return out


# the mirror's n - 1 samples start at a block edge (sample 64) and the knots
# at sample n + 63: n = 1 leaves the mirror empty; at n = 63, 64 and 65 the
# mirror ends two short of, one short of and on the next edge, and the knots
# start two before, one before and on an edge; 200 and 4097 span many blocks
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 4097])
def test_quintic_coefficients_match_the_ext_layout_bit_for_bit(n):
    rng = np.random.default_rng(n)
    knots = rng.normal(size=n) + 1j * rng.normal(size=n)
    knots[0] = knots[0].real
    np.testing.assert_array_equal(_bits(_prefilter(_blocked_extension(knots), knots.size)),
                                  _bits(_quintic_coefficients_ext(knots)))
    # the build hands in strided views of the table as well
    table = np.repeat(knots, 2)[:-1]
    evens = table[::2]
    np.testing.assert_array_equal(_bits(_prefilter(_blocked_extension(evens), evens.size)),
                                  _bits(_quintic_coefficients_ext(knots)))


# (n, n1): n2 = 64 runs one chunk of twiddles, n2 = 256 four
SHAPES = ((2 ** 12, 2 ** 6), (2 ** 14, 2 ** 6))


@st.composite
def _windows(draw):
    n, n1 = draw(st.sampled_from(SHAPES))
    return (n, n1, draw(st.integers(0, n - 1)), draw(st.integers(1, n1)),
            draw(st.integers(1, n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(window=_windows(), seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_ifft_matches_the_out_of_place_transform_bit_for_bit(window, seed):
    n, n1, lo, width, n_out = window
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, width)
    np.testing.assert_array_equal(_bits(_pruned_ifft(x, lo, n, n1, n_out)),
                                  _bits(_pruned_ifft_out_of_place(x, lo, n, n1, n_out)))


# ---------------------------------------------------------------------------
# the build's outputs and memory
# ---------------------------------------------------------------------------

# the outputs of the build with the ext-layout prefilter, the out-of-place
# chunk transform and a full-length validation
PINNED = {
    0.0: ("68d40f9fd1ced3bf72e8c420857dea1f37315c03858bbcbed676a97e75510fb9",
          "0x1.28f4ad3b6e9b6p-49", "0x1.0f876ccdf6cdap-54", "0x1.e8ec8a4aeacc4p-4"),
    0.125: ("9f9b51643163bdface9869d655b81cfd0ff20df2ffd991ed20916a906c3579aa",
            "0x1.2d1491f093a1ep-49", "0x1.40e613b03f1e0p-54", "0x1.ef8e92d1e7443p-4"),
}


@pytest.mark.parametrize("m", sorted(PINNED))
def test_build_outputs_are_the_pinned_bits(m):
    coefs_sha, err_l1, err_max, at_zero = PINNED[m]
    prof = PhiProfile.cached(m)
    assert prof._coefs.size == 480006
    assert hashlib.sha256(prof._coefs.tobytes()).hexdigest() == coefs_sha
    assert prof.err_l1.hex() == err_l1
    assert prof.err_max.hex() == err_max
    assert prof.value_at_zero.real.hex() == at_zero
    assert prof.value_at_zero.imag.hex() == "0x0.0p+0"


def test_build_peak_is_the_table_split_or_the_blocks():
    # with an ext copy, a transposed copy and a full-length validation the
    # build peaked at about 44 MiB; now at about 29.4 MiB: the table and its
    # two halves while it is split, then the halves and the blocks; the
    # bound leaves about 15% of that as margin
    tracemalloc.start()
    try:
        PhiProfile(0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34 * 2 ** 20


def test_picard_solve_peak_holds_no_previous_difference():
    # a 2048-point, 128-node mkdv solve (the benchmark's preset); holding the
    # last difference field into the next Duhamel application added one
    # 129 x 2048 complex stack (4 MiB) and peaked at about 56.5 MiB, against
    # about 52.6 MiB without it
    grid = Grid(2048, 60.0)
    u0 = GridFunction(grid, soliton_oracle("mkdv", 1.0)(grid.x, 0.0))
    config = PicardConfig(horizon=0.05, time_nodes=128)
    tracemalloc.start()
    try:
        picard_iterate(u0, reduction_preset("mkdv"), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 54.5 * 2 ** 20
