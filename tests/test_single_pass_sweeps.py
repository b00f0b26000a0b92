"""The sweeps' one-pass formulas against the multi-pass ones they replace.

Three formulas each read a frame stack once: the trapezoid integral in t is
one product with a weight vector, a packet's frames are one product of its
factors, and the smoothing sweep's LHS is read off the interaction-picture
integral h by Parseval.  Each is held here to a rounding bound against the
formula it replaced.  eps is float64's machine epsilon and u = eps/2 its unit
roundoff; gamma_n = n u / (1 - n u) bounds the relative error of n roundings.

Trapezoid weights.  On times t_0 < ... < t_(T-1) and rows y_k >= 0 both
paths approximate S = sum_k (t_(k+1) - t_k) (y_k + y_(k+1)) / 2.  The weight
w_k takes one rounding for each step and one for the sum of its two halves,
and a dot product of T nonnegative terms adds at most T more in any order,
fused or not, so w @ y is within gamma_(T+2) S of S.  np.trapezoid rounds
each step, each y_k + y_(k+1), each product and the T - 1 sums, so it is
within gamma_(T+1) S.  The halvings are exact.  So, absorbing the terms of
order (T eps)^2,

    |w @ y - trapezoid(y)| <= (T + 3) eps max(w @ y, trapezoid(y)).

Factor product.  A packet's frame at (t, x) is sum_c M_c(t) P_c(x) over its
r components.  Either path computes each real and imaginary part as a
2r-term sum of real products, in some order and perhaps fused, so each part
is off by at most gamma_2r times the sum of the moduli of its terms.  Both
parts together are bounded by gamma_2r sum_c (|Re M_c| + |Im M_c|)(|Re P_c|
+ |Im P_c|) <= 2 gamma_2r sum_c |M_c| |P_c|.  So the product and the old sum
of outer products differ by at most

    (4 r + 1) eps sum_c |M_c(t)| |P_c(x)|.

Parseval LHS.  The frame-wise path pushes h forward, v = exp(itL) h, takes
d/dx as the multiplier i xi, transforms back and takes sqrt(spacing sum_x
|.|^2) per row.  The exact value of both paths is A_t = sqrt(spacing / n
sum_xi xi^2 |h(t, xi)|^2), since exp(itL) has modulus 1.  Relative to A_t:

- the frame-wise path's phase has modulus within eps of 1 (its cosine and
  sine are correctly rounded to an ulp), the two complex products add at
  most 3 eps, and the inverse FFT at most 4 log2(n) eps in l^2 (the FFT's
  error bound, as in test_separable_images);
- each path's sum of n nonnegative squares is within gamma_(n+2) of exact,
  so its square root within about (n + 2) u, and forming each square, the
  scale and the root add at most 4 u;
- squares flushed below 2^-1022 drop less than n 2^-1022 spacing from a
  sum that is far larger here.

So with the maximum over t taken of both,

    |lhs_frame_wise - lhs_parseval| <= (4 log2 n + n / 2 + 10) eps max(lhs).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nlsa_lab.estimates import _derivative_sup, random_spacetime_packets
from nlsa_lab.norms import SpaceTimeField, _trapezoid_weights, mixed_norm_t_x
from nlsa_lab.spectral import (EquationParams, Grid, _rows_per_block, _duhamel_integral,
                               duhamel_flow)

EPS = np.finfo(float).eps


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    time_nodes=st.sampled_from([1, 2, 3, 17, 129, 513]),
    columns=st.integers(1, 64),
)
def test_trapezoid_weights_agree_with_numpy_trapezoid(seed, time_nodes, columns):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.01, 1.0, time_nodes - 1) * 10.0 ** rng.uniform(-3, 3)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    # magnitudes over twelve decades, none of them subnormal
    y = rng.random((time_nodes, columns)) * 10.0 ** rng.uniform(-6, 6, (time_nodes, columns))

    got = _trapezoid_weights(times) @ y
    want = np.trapezoid(y, x=times, axis=0)
    bound = (time_nodes + 3) * EPS * np.maximum(got, want)
    assert np.all(np.abs(got - want) <= bound)
    # the one-row rule on a single node integrates to 0, as np.trapezoid does
    if time_nodes == 1:
        assert np.all(got == 0.0)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_points=st.sampled_from([128, 256, 512]),
    time_nodes=st.sampled_from([17, 129, 257]),
    horizon=st.sampled_from([1.0, 0.125]),
)
def test_packet_frames_agree_with_the_sum_of_outer_products(
    seed, num_points, time_nodes, horizon
):
    packet = random_spacetime_packets(1, np.random.default_rng(seed))[0]
    grid = Grid(num_points, 60.0)
    times = np.linspace(0.0, horizon, time_nodes)
    modulations, spatial = packet.factors(grid.x, times)

    outer_sum = np.multiply.outer(modulations[0], spatial[0])
    for m, p in zip(modulations[1:], spatial[1:]):
        outer_sum += np.multiply.outer(m, p)
    r = len(modulations)
    bound = (4 * r + 1) * EPS * (np.abs(modulations).T @ np.abs(spatial))
    assert np.all(np.abs(packet.sample(grid.x, times) - outer_sum) <= bound)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_points=st.sampled_from([128, 256, 512]),
    time_nodes=st.sampled_from([17, 129, 257]),
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
)
def test_parseval_lhs_agrees_with_the_frame_wise_path(seed, num_points, time_nodes, a, b):
    packet = random_spacetime_packets(1, np.random.default_rng(seed))[0]
    grid = Grid(num_points, 60.0)
    params = EquationParams(a=a, b=b)
    times = np.linspace(0.0, 1.0, time_nodes)
    forcing_hat = np.fft.fft(packet.sample(grid.x, times), axis=1)

    def integral(block):
        return _duhamel_integral(grid, params, times,
                                 lambda rows, out: np.copyto(out, forcing_hat[rows]), block)

    # the frame-wise path: push the whole integral forward, differentiate,
    # transform back
    held = np.concatenate([h.copy() for _, h in integral(time_nodes)])
    flow = duhamel_flow(grid, params, np.ones(num_points, dtype=np.complex128), times) * -held
    frames = np.fft.ifft(1j * grid.xi_fft * flow, axis=1)
    frame_wise = mixed_norm_t_x(SpaceTimeField(grid, times, frames), math.inf, 2)
    # the sweep's path, block by block
    parseval = _derivative_sup(grid, (h for _, h in integral(_rows_per_block(num_points))))

    assert parseval > 0.0
    bound = (4 * math.log2(num_points) + num_points / 2 + 10) * EPS
    assert abs(frame_wise - parseval) <= bound * max(frame_wise, parseval)
