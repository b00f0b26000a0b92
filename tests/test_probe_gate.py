"""The probe gate: inputs float64 cannot carry are refused before any work.

Every quadrature path (osc_integral_direct, osc_integral_contour,
arc_exponent_check and run_probe) starts with one gate.  A non-finite a, xi
or omega, a product |b| t that underflows to 0, and a probe whose phase
t (a z^2 + b z^3) or weight 1 + z^2 overflows at the farthest point the path
touches each raise a ValueError naming the argument, before any profile is
built or evaluated.  The region tests' squares are products, so they reach
inf where a Python float power raises OverflowError.
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from nlsa_lab.oscillatory import (
    PhiProfile,
    RegionLabel,
    admissible_parameters,
    arc_exponent_check,
    classify_xi,
    intermediate_count,
    osc_integral_contour,
    osc_integral_direct,
    run_probe,
)

_ENTRIES = {
    "run_probe": lambda a, b, t, omega, xi: run_probe(a, b, t, omega, 0.125, xi),
    "direct": lambda a, b, t, omega, xi: osc_integral_direct(a, b, t, omega, 0.125, xi),
    "contour": lambda a, b, t, omega, xi: osc_integral_contour(a, b, t, omega, 0.125, xi),
    "arc": arc_exponent_check,
}

# (a, b, t, omega, xi) and the argument the refusal names
_REFUSED = {
    "a-nan": ((math.nan, 1.0, 1.0, 256.0, 1.0), "a"),
    "xi-nan": ((0.0, 1.0, 1.0, 256.0, math.nan), "xi"),
    "xi-inf": ((0.0, 1.0, 1.0, 256.0, math.inf), "xi"),
    "omega-inf": ((0.0, 1.0, 1.0, math.inf, 1.0), "omega"),
    "bt-underflow": ((0.0, 5e-324, 5e-324, 256.0, 1.0), "b"),
    # omega/(|b| t) and 1e4 (a/(2b))^2 both overflow, so the admissibility test
    # read inf >= inf, and the arc bracket's identity error was NaN
    "ratio-overflow": ((-4.85e112, -7.1e-104, 2.1e-30, 3.25e177, 4.2e12), "omega"),
    "phase-3e153": ((0.0, 1.0, 1.0, 256.0, 3e153), "xi"),
    "phase-3e153-t0.1": ((0.0, 1.0, 0.1, 1024.0, 3e153), "xi"),
    "phase-1e200": ((0.0, 1.0, 1.0, 256.0, 1e200), "xi"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(_REFUSED))
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_refused_probes_name_the_argument_before_any_profile_work(monkeypatch, entry, case):
    args, name = _REFUSED[case]
    builds, evaluations = [], []
    init, eval_real = PhiProfile.__init__, PhiProfile.eval_real
    # an empty cache, so that a profile the path asked for would be built
    monkeypatch.setattr(PhiProfile, "_cache", {})
    monkeypatch.setattr(
        PhiProfile, "__init__", lambda self, *a, **k: builds.append(1) or init(self, *a, **k)
    )
    monkeypatch.setattr(
        PhiProfile, "eval_real", lambda self, v: evaluations.append(1) or eval_real(self, v)
    )
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        _ENTRIES[entry](*args)
    assert builds == [] and evaluations == []


@pytest.mark.parametrize("call", [
    lambda: classify_xi(1.0, 0.0, 5e-324, 5e-324, 256.0),
    lambda: admissible_parameters(0.0, 5e-324, 5e-324, 256.0),
], ids=["classify", "admissible"])
def test_bt_underflow_is_a_value_error_naming_b_and_t(call):
    with pytest.raises(ValueError, match=r"b=5e-324, t=5e-324"):
        call()


def test_nan_a_is_not_admissible():
    assert not admissible_parameters(math.nan, 1.0, 1.0, 256.0)


@pytest.mark.parametrize("xi", [1e200, -1e200])
def test_huge_xi_is_far(xi):
    assert classify_xi(xi, 0.0, 1.0, 1.0, 256.0) is RegionLabel.FAR


# (xi, a, b, t, omega) and the argument the refusal names; a NaN used to read
# intermediate, an infinite xi far and an infinite omega near
@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.0, 1.0, 1.0, 256.0), "xi"),
    ((math.inf, 0.0, 1.0, 1.0, 256.0), "xi"),
    ((1.0, math.nan, 1.0, 1.0, 256.0), "a"),
    ((1.0, 0.0, 1.0, 1.0, math.nan), "omega"),
    ((1.0, 0.0, 1.0, 1.0, math.inf), "omega"),
], ids=["xi-nan", "xi-inf", "a-nan", "omega-nan", "omega-inf"])
def test_classify_refuses_non_finite_inputs(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        classify_xi(*args)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_just_inside_the_gate_converges_and_agrees():
    # z^3 ~ 1e306 at xi = 1e102 (b = t = 1) is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = run_probe(0.0, 1.0, 1.0, 256.0, 0.125, 1e102)
    assert probe.label is RegionLabel.FAR
    assert probe.converged and probe.agrees


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    a=_FINITE,
    xi=_FINITE,
    b=_FINITE.filter(lambda b: b != 0.0),
    t=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    omega=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
)
def test_region_tests_raise_only_value_errors(a, xi, b, t, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: classify_xi(xi, a, b, t, omega),
            lambda: admissible_parameters(a, b, t, omega),
            lambda: intermediate_count(xi, a, b, t),
        ):
            try:
                call()
            except ValueError:
                pass
