"""The three cubic difference splits, checked as properties.

Each split writes a difference of cubic terms in u and v as a sum of terms
that each carry a factor v - u, its conjugate, or the derivative difference
dv - du.  The properties: the terms add up to the difference (to rounding,
measured against the size of the cubic products), and every term vanishes
exactly when the two fields coincide.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlsa_lab.picard import (
    conjugate_derivative_difference_split,
    cubic_difference_split,
    derivative_difference_split,
)

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
TOL = 1e-13

seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(1e-3, 1e3)


def fields(seed, amplitude, count):
    rng = np.random.default_rng(seed)
    return [amplitude * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
            for _ in range(count)]


@PROPERTY
@given(seed=seeds, amplitude=amplitudes, ratio=st.floats(1e-6, 1.0))
def test_cubic_split_property(seed, amplitude, ratio):
    u, w = fields(seed, amplitude, 2)
    v = u + ratio * w
    lhs = np.abs(v) ** 2 * v - np.abs(u) ** 2 * u
    scale = np.max((np.abs(u) + np.abs(v)) ** 3)
    assert np.max(np.abs(sum(cubic_difference_split(u, v)) - lhs)) <= TOL * scale
    assert all(np.all(term == 0) for term in cubic_difference_split(u, u))


@PROPERTY
@given(seed=seeds, amplitude=amplitudes, ratio=st.floats(1e-6, 1.0))
def test_derivative_split_property(seed, amplitude, ratio):
    u, w, du, dw = fields(seed, amplitude, 4)
    v, dv = u + ratio * w, du + ratio * dw
    lhs = np.abs(v) ** 2 * dv - np.abs(u) ** 2 * du
    scale = np.max((np.abs(u) + np.abs(v)) ** 2 * (np.abs(du) + np.abs(dv)))
    terms = derivative_difference_split(u, v, du, dv)
    assert np.max(np.abs(sum(terms) - lhs)) <= TOL * scale
    assert all(np.all(term == 0) for term in derivative_difference_split(u, u, du, du))


@PROPERTY
@given(seed=seeds, amplitude=amplitudes, ratio=st.floats(1e-6, 1.0))
def test_conjugate_derivative_split_property(seed, amplitude, ratio):
    u, w, du, dw = fields(seed, amplitude, 4)
    v, dv = u + ratio * w, du + ratio * dw
    lhs = v**2 * np.conj(dv) - u**2 * np.conj(du)
    scale = np.max((np.abs(u) + np.abs(v)) ** 2 * (np.abs(du) + np.abs(dv)))
    terms = conjugate_derivative_difference_split(u, v, du, dv)
    assert np.max(np.abs(sum(terms) - lhs)) <= TOL * scale
    assert all(np.all(term == 0) for term in conjugate_derivative_difference_split(u, u, du, du))
