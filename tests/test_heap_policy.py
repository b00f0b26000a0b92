"""The glibc heap policy of the band loop, the profile build, the estimate
sweeps and the Picard iteration: fewer page faults, no cost left behind.

numpy's FFT takes two fresh N-point complex buffers per transform, and glibc
maps (32 MiB and up) or trims (16 MiB) them straight back to the system, so
without the policy each band transform page-faults them in anew: a 2^20-point
report faulted about 36 times the page count of one N-point complex array,
and about 3.5 times with it.  The profile build's temporaries (its 2^23-point
table transform, the table's halves and the prefilter blocks) went the same
way: one PhiProfile(0.125) took about 27k faults and left 38 MiB resident,
and with the policy 4.7k faults and 7.2 MiB, its 7.3 MiB of spline
coefficients (x86-64, glibc 2.36, numpy 2.4.6); the interpolant's knots,
which replaced the coefficients, are as large.  The estimate sweeps' few-MiB
temporaries were mapped and faulted in anew on every field once glibc's mmap
threshold sat below them: verify-estimates running the chain-rule sweep
alone took 171k faults, and 8k under the policy.  Each sweep enters the
policy itself, so a call from Python gets it too: the smoothing, chain-rule
and two-sided Leibniz sweeps at seed 1 took 209k, 180k and 103k faults
without it and 2.7k, 1.9k and 1.4k with it, and the mkdv preset's Picard
solve 10.0-10.5k and 5.1k.  Faults are the process's minor faults from
getrusage, and resident memory is read from /proc/self/statm, so the fault
tests run on Linux with glibc only.
"""

import ctypes
import mmap
import platform
import subprocess
import sys

import pytest

from nlsa_lab import spectral
from nlsa_lab.oscillatory import PhiProfile, band_sum_report

glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy acts on glibc's malloc only",
)


# Each fault test runs in a fresh process: glibc's thresholds are process-wide,
# and after a failed allocation glibc moves the main thread to a secondary
# arena, whose heaps are unmapped whole when freed.  That happens in a suite
# that tests allocation refusals; the report then faulted 17-22 times the page
# count instead of 3.5.
_FRESH = """
import resource
import numpy as np
from nlsa_lab.oscillatory import PhiProfile, band_sum_report

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def resident_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20
"""


def run_fresh(script):
    """The whitespace-split stdout of script run after _FRESH in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH + script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@glibc_only
def test_a_report_faults_fewer_than_eight_times_one_complex_array():
    n = 2**20
    (faults,) = run_fresh(f"""
band_sum_report(0.0, 1.0, 1.0, 0.125, num_points=2**14)  # imports and plans
start = faults()
band_sum_report(1.0, 1.0, 4.0, 0.125, num_points={n})
print(faults() - start)
""")
    pages = n * 16 // mmap.PAGESIZE
    assert int(faults) < 8 * pages, int(faults) / pages


# one fixed pattern of transforms on 256 KiB to 2 MiB arrays, the sizes a later
# sweep, solve or probe allocates, measured warm under glibc's untouched
# dynamic rule and then after a report or a build
_PATTERN = """
def pattern():
    for size in (2**14, 2**15, 2**16, 2**17) * 4:
        np.fft.ifft(np.ones(size, dtype=complex))

pattern()
"""


@glibc_only
def test_code_after_a_report_faults_no_more_than_before_it():
    before, after, grown = run_fresh(_PATTERN + """
start = faults(); pattern(); before = faults() - start
resident = resident_mib()
band_sum_report(0.0, 1.0, 1.0, 0.125, num_points=2**18)
grown = resident_mib() - resident
start = faults(); pattern(); after = faults() - start
print(before, after, grown)
""")
    assert int(after) <= int(before), (before, after)
    # the scratch is handed back: what stays is less than one 2^18-point
    # complex array (4 MiB); the report's window sums are 1 MiB of it
    assert float(grown) < 2**18 * 16 / 2**20, grown


@glibc_only
def test_a_build_faults_fewer_than_ten_thousand_times():
    (faults,) = run_fresh("""
start = faults()
PhiProfile(0.125)
print(faults() - start)
""")
    assert int(faults) < 10_000, faults


@glibc_only
def test_a_build_leaves_its_coefficients_and_little_else_resident():
    grown, knots = run_fresh("""
resident = resident_mib()
profile = PhiProfile(0.125)
print(resident_mib() - resident, profile._knots.nbytes / 2**20)
""")
    assert float(grown) < float(knots) + 4.0, (grown, knots)


@glibc_only
def test_code_after_a_build_faults_no_more_than_before_it():
    before, after = run_fresh(_PATTERN + """
start = faults(); pattern(); before = faults() - start
PhiProfile(0.125)
start = faults(); pattern(); after = faults() - start
print(before, after)
""")
    assert int(after) <= int(before), (before, after)


@glibc_only
def test_a_chain_rule_sweep_on_a_cli_worker_faults_fewer_than_thirty_thousand_times(tmp_path):
    # the CLI runs the sweeps on a worker thread, in a secondary glibc arena
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1, "estimates": ["chain-rule"]}')
    argv = ["verify-estimates", "--config", str(config), "--out", str(tmp_path / "out"),
            "--threads", "1"]
    *_, code, faults = run_fresh(f"""
from nlsa_lab import cli
start = faults()
code = cli.main({argv!r})
print(code, faults() - start)
""")
    assert code == "0"
    assert int(faults) < 30_000, faults


# each sweep called from Python, not through cli.main, with nothing run
# before it: the library enters the policy for its own field evaluations
_SWEEPS = {
    "smoothing": "check_smoothing(EquationParams(a=0.0, b=1.0), seed=1)",
    "chain-rule": "check_chain_rules(seed=1)",
    "leibniz-two-sided": "check_leibniz_two_sided(seed=1)",
}


@glibc_only
@pytest.mark.parametrize("call", _SWEEPS.values(), ids=_SWEEPS.keys())
def test_a_sweep_called_from_python_faults_fewer_than_thirty_thousand_times(call):
    (faults,) = run_fresh(f"""
from nlsa_lab.estimates import check_chain_rules, check_leibniz_two_sided, check_smoothing
from nlsa_lab.spectral import EquationParams
start = faults()
{call}
print(faults() - start)
""")
    assert int(faults) < 30_000, faults


@glibc_only
def test_a_picard_solve_faults_fewer_than_eight_thousand_times():
    # solve-presets' mkdv soliton: 2048 points, L = 60, 129 frames
    (faults,) = run_fresh("""
from nlsa_lab.picard import PicardConfig, picard_iterate, reduction_preset, soliton_oracle
from nlsa_lab.spectral import Grid, GridFunction
grid = Grid(2048, 60.0)
u0 = GridFunction(grid, soliton_oracle("mkdv")(grid.x, 0.0))
config = PicardConfig(horizon=0.05, time_nodes=128)
start = faults()
picard_iterate(u0, reduction_preset("mkdv"), config)
print(faults() - start)
""")
    assert int(faults) < 8_000, faults


class _NoMallopt:
    """A C library in which ctypes finds no mallopt."""

    def __init__(self, *args, _cdll=ctypes.CDLL, **kwargs):
        self._lib = _cdll(*args, **kwargs)

    def __getattr__(self, name):
        if name == "mallopt":
            raise AttributeError(name)
        return getattr(self._lib, name)


def test_a_report_without_mallopt_returns_the_same_bits(monkeypatch):
    def report():
        rep = band_sum_report(1.0, -1.0, 0.5, 0.125, num_points=2**16)
        return (rep.sums.tobytes(), rep.sup.hex(), rep.tail_fraction.hex(),
                {n: v.hex() for n, v in rep.band_sups.items()})

    with_policy = report()
    monkeypatch.setattr(ctypes, "CDLL", _NoMallopt)
    assert spectral._glibc_heap() is None
    assert report() == with_policy


def test_a_build_without_mallopt_returns_the_same_bits(monkeypatch):
    def build(profile):
        return (profile._knots.tobytes(), profile.value_at_zero, profile.mass,
                profile.deriv_l1.tobytes(), profile.v_end, profile.err_max,
                profile.err_l1)

    with_policy = build(PhiProfile.cached(0.125))
    monkeypatch.setattr(ctypes, "CDLL", _NoMallopt)
    assert spectral._glibc_heap() is None
    assert build(PhiProfile(0.125)) == with_policy
