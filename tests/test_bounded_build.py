"""The profile build holds no full-size temporary past its last reader, and
every value it produces is bit-identical to the layouts it replaced.

Each pruned-FFT chunk is transformed in place in one buffer, and the table's
even samples are written straight into the knot array, its odd ones copied
out for the validation, before the table is freed.  The replaced transform
is kept here as a reference and the new one must match it bit for bit; the
build's outputs are pinned by float.hex and sha256, recorded on x86-64 with
Python 3.11.7 and numpy 2.4.6 (the table comes from pocketfft).  Memory is
measured with tracemalloc, which sees numpy's data buffers.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsa_lab.oscillatory import PhiProfile, _pruned_ifft
from nlsa_lab.picard import PicardConfig, picard_iterate, reduction_preset, soliton_oracle
from nlsa_lab.spectral import Grid, GridFunction


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


# ---------------------------------------------------------------------------
# the replaced transform, as a reference
# ---------------------------------------------------------------------------

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

# the outputs of the build with the 8-knot Lagrange interpolant, the
# out-of-place chunk transform and a full-length validation
PINNED = {
    0.0: ("d2da4fb4fe591d70fff93197c8735a1a0d6cc5b4dc9baaf7a7ef9acc155d4868",
          "0x1.1eee291163eb3p-49", "0x1.001ffe003ff60p-54", "0x1.e8ec8a4aeacc4p-4"),
    0.125: ("7722f811742c8c3e2d544786b316568083451b7ebd11f05f0961dae1e746129b",
            "0x1.22bfd94034201p-49", "0x1.09eeacab398f3p-54", "0x1.ef8e92d1e7443p-4"),
}


@pytest.mark.parametrize("m", sorted(PINNED))
def test_build_outputs_are_the_pinned_bits(m):
    knots_sha, err_l1, err_max, at_zero = PINNED[m]
    prof = PhiProfile.cached(m)
    assert prof._knots.size == 480009
    assert hashlib.sha256(prof._knots.tobytes()).hexdigest() == knots_sha
    assert prof.err_l1.hex() == err_l1
    assert prof.err_max.hex() == err_max
    assert prof.value_at_zero.real.hex() == at_zero
    assert prof.value_at_zero.imag.hex() == "0x0.0p+0"


def test_build_peak_is_the_table_split_or_the_blocks():
    # with an ext copy, a transposed copy and a full-length validation the
    # build peaked at about 44 MiB; with the prefiltered spline at about
    # 29.5 MiB, and now at about 29.3 MiB: the table and its two halves,
    # the held-out midpoints and the knots, while it is split; the bound
    # leaves about 15% of that as margin
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
