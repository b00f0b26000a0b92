"""The profile build holds no array of the table's size, and every value it
produces is bit-identical to the layouts it replaced.

The pruned FFT yields its columns a batch at a time, each batch transformed
in place in one buffer: the even ones are written straight into the knot
array, and the odd ones are checked against the interpolant as they come
out.  The replaced out-of-place transform, which assembled the whole table,
is kept here as a reference, and the yielded columns, assembled, must match
it bit for bit; the
build's outputs are pinned by float.hex and sha256, recorded on x86-64 with
Python 3.11.7 and numpy 2.4.6 (the table comes from pocketfft).  Memory is
measured with tracemalloc, which sees numpy's data buffers.
"""

import hashlib
import os
import platform
import subprocess
import sys
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


def _assembled(x, lo, n, n1, n_out):
    """The streamed transform's columns of both parities, placed at their
    indices; every index below n_out must come exactly once."""
    out = np.empty(n_out, dtype=np.complex128)
    seen = np.zeros(n_out, dtype=np.int64)
    for parity in (0, 1):
        for k, values in _pruned_ifft(x, lo, n, n1, n_out, parity):
            out[k] = values
            np.add.at(seen, k, 1)
    assert np.all(seen == 1)
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
    np.testing.assert_array_equal(_bits(_assembled(x, lo, n, n1, n_out)),
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
    # 29.5 MiB; at about 29.3 MiB while the assembled table was split into
    # the knots and the held-out midpoints; and now, with the columns
    # streamed, at about 18.9 MiB: the knots, err, the transform's fine
    # table and buffer, and one batch of odd columns in the validation; the
    # bound leaves about 15% of that as margin
    tracemalloc.start()
    try:
        PhiProfile(0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2 ** 20


# the two builds of osc-sweep in a fresh interpreter; numpy's huge-page
# advice is off, so the resident high-water counts 4 KiB pages only.  The
# high-water is the process's own VmHWM: getrusage's ru_maxrss starts a child
# at its parent's peak, which the pytest process has long passed
_TWO_BUILDS = """
from nlsa_lab.oscillatory import PhiProfile

def high_water_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

start = high_water_kib()
PhiProfile(1 / 16)
PhiProfile(1 / 8)
print(high_water_kib() - start)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="VmHWM is Linux's, and the build's heap policy is glibc's")
def test_two_builds_raise_the_resident_high_water_by_at_most_26_mib():
    # tracemalloc does not see pocketfft's scratch, so the resident memory is
    # guarded too.  The rise over the post-import high-water was about
    # 33.7 MiB while the build assembled its table and 19.4-19.6 MiB with
    # the columns streamed (x86-64, glibc 2.36, numpy 2.4.6, transparent huge
    # pages on madvise); the bound is that, rounded up to 20 MiB, plus a
    # margin of 6 MiB
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    proc = subprocess.run([sys.executable, "-c", _TWO_BUILDS], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rise_kib = int(proc.stdout)
    assert rise_kib <= 26 * 1024, rise_kib / 1024


def test_picard_solve_peak_holds_no_previous_difference():
    # a 2048-point, 128-node mkdv solve (the benchmark's preset); holding the
    # last difference field into the next Duhamel application added one
    # 129 x 2048 complex stack (4 MiB) and peaked at about 56.5 MiB, against
    # about 52.6 MiB without it.  With the forcing spectrum, the u_x stack,
    # the forward phase and each multiplier image of the distance held whole
    # it peaked at 36.40 MiB; with the Duhamel integral streamed, at 30.65
    # MiB; with the iterate carried as its spectrum alone, its frames formed
    # a block of rows at a time where they are read, it peaks at 23.15 MiB.
    # The bound is that plus a margin of 2 MiB, half a frame stack, so a
    # stack held again fails
    grid = Grid(2048, 60.0)
    u0 = GridFunction(grid, soliton_oracle("mkdv", 1.0)(grid.x, 0.0))
    config = PicardConfig(horizon=0.05, time_nodes=128)
    tracemalloc.start()
    try:
        picard_iterate(u0, reduction_preset("mkdv"), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25.15 * 2 ** 20, peak / 2 ** 20


# the same solve in a fresh interpreter, its resident high-water measured as
# the two builds' is above
_ONE_SOLVE = """
from nlsa_lab.picard import PicardConfig, picard_iterate, reduction_preset, soliton_oracle
from nlsa_lab.spectral import Grid, GridFunction

def high_water_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

grid = Grid(2048, 60.0)
u0 = GridFunction(grid, soliton_oracle("mkdv", 1.0)(grid.x, 0.0))
config = PicardConfig(horizon=0.05, time_nodes=128)
start = high_water_kib()
picard_iterate(u0, reduction_preset("mkdv"), config)
print(high_water_kib() - start)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="VmHWM is Linux's, and the solve's heap policy is glibc's")
def test_picard_solve_raises_the_resident_high_water_by_at_most_28_mib():
    # tracemalloc does not see pocketfft's scratch, so the resident memory is
    # guarded too.  The rise over the high-water before the solve was
    # 41.8-41.9 MiB with the forcing, u_x, forward-phase and image stacks
    # held whole, 32.95-32.98 MiB with the Duhamel integral streamed, and
    # 23.9-24.0 MiB with the iterate carried as its spectrum alone (x86-64,
    # glibc 2.36, numpy 2.4.6, transparent huge pages on madvise); the bound
    # is that, rounded up to 25 MiB, plus a margin of 3 MiB
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    proc = subprocess.run([sys.executable, "-c", _ONE_SOLVE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rise_kib = int(proc.stdout)
    assert rise_kib <= 28 * 1024, rise_kib / 1024
