"""Sweep probes: build_probe_grid picks each combination's t by the
admissibility rule the probe gate applies, so every probe it returns passes
the gate."""

import math

from hypothesis import example, given, settings, strategies as st

from nlsa_lab.oscillatory import _require_probe, admissible_parameters, build_probe_grid

_FRACS = dict(near_fracs=(0.35, 0.8), far_fracs=(1.5,), intermediate_fracs=(0.5, 3.0))


def _clipped_t(a, b, omega, t_request):
    """The t the grid took before it asked the rule: the bound, inverted by one division."""
    half = a / (2.0 * b)
    return min(t_request, omega / (abs(b) * max(1.0, 1e4 * half * half)))


# magnitudes for which every probe of the grid stays inside float64 on its path
@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    a=st.floats(-1e6, 1e6),
    b=st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
    omega=st.floats(1.0, 2.0 ** 40, exclude_min=True),
    t_request=st.floats(1e-6, 1e3),
)
@example(a=-2.93, b=-1.0, omega=1024.0, t_request=0.5)
def test_every_grid_probe_passes_the_gate(a, b, omega, t_request):
    grid = build_probe_grid([omega], [(a, b)], [0.125], t_request=t_request, **_FRACS)
    assert len(grid) == 5
    clipped = _clipped_t(a, b, omega, t_request)
    for (pa, pb, t, pomega, _, xi) in grid:
        _require_probe(pa, pb, t, pomega, xi)
        assert t <= t_request
        if admissible_parameters(a, b, clipped, omega):
            assert t == clipped
        else:
            assert t < clipped


def test_a_clip_the_division_leaves_inadmissible_steps_down_one_ulp():
    # omega/(|b| t) = 21462.25 < 1e4 (a/(2b))^2 = 21462.250000000004 at the
    # divided t, which the gate refused
    clipped = _clipped_t(-2.93, -1.0, 1024.0, 0.5)
    assert clipped.hex() == "0x1.86daa50d76b11p-5"
    assert not admissible_parameters(-2.93, -1.0, clipped, 1024.0)
    grid = build_probe_grid([1024.0], [(-2.93, -1.0)], [0.125])
    assert {p[2] for p in grid} == {math.nextafter(clipped, 0.0)}
    for (a, b, t, omega, _, xi) in grid:
        _require_probe(a, b, t, omega, xi)
