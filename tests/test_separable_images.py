"""Multipliers applied to a packet's spatial factors against the frame-wise path.

A space-time packet is a sum of r products m_c(t) p_c(x), and the
sup-embedding, chain-rule and two-sided Leibniz sweeps apply each Fourier
multiplier D to the spatial rows only: D u = sum_c m_c (x) D p_c.  The
frame-wise path, spectral.apply_symbols on the stack of sampled frames, is
the reference here.

Rounding bound.  Take a field with K factor rows (M_k, P_k) and a symbol
sigma on N points, and let eps be float64's machine epsilon.  Both paths
approximate the exact image sum_k M_k (x) D P_k:

- a multiplier row ifft(sigma fft(v)) is off by at most c eps log2(N)
  ||sigma||_inf ||v||_2 in l^2 (the FFT's error bound; c = 4 covers the
  transform pair and the product with sigma), and a sample's error is at
  most the l^2 error;
- the frame-wise path applies it to frames whose samples carry at most
  K eps sum_k |M_k(t)| |P_k(x)| from their own formation, and
  ||u(t)||_2 <= sum_k |M_k(t)| ||P_k||_2;
- the separable path sums K products M_k(t) D P_k(x), which adds at most
  K eps sum_k |M_k(t)| ||sigma||_inf ||P_k||_2.

So the paths differ by at most

    bound = 2 (4 log2 N + 2 K + 8) eps ||sigma||_inf sum_k ||M_k||_inf ||P_k||_2,

where the 8 takes up the few roundings of forming a row, such as the three
factors of |u|^2 u (K = r^3 rows p_a conj(p_b) p_c).  The two-sided defect
D(fg) - f Dg - g Df is three such images over the r^2 rows of f g; each of
its terms is bounded by sum_ab ||m_a n_b||_inf ||p_a||_2 ||q_b||_2, since
||p q||_2 <= ||p||_inf ||q||_2 <= ||p||_2 ||q||_2 on the samples, so its
bound is three times that sum's.

The norms read such a field's |u|^2 from its factors: one real product of
the r^2 Hermitian rows |m_a|^2, 2 Re(m_a conj m_b), -2 Im(m_a conj m_b) and
|p_a|^2, Re(p_a conj p_b), Im(p_a conj p_b).  Let S = sum_c |m_c| |p_c| at a
node and a point, and take eps as a bound on one operation's relative
rounding.  A Hermitian row entry is off by at most 2 eps times its size:
|z_a|^2 for a diagonal entry, and the pair weight times |z_a| |z_b| for
Re(z_a conj z_b) or Im(z_a conj z_b), a sum of two products that round
relative to themselves, not to the sum, which can cancel.  So each of the
r^2 products T_k S_k of a time entry and a space entry is off by at most
5 eps s_k, s_k the product of the two entries' sizes.  With
x_c = |m_c| |p_c|, a pair a < b has an Re and an Im term, each of size
2 x_a x_b, so

    sum_k s_k = sum_a x_a^2 + 4 sum_{a<b} x_a x_b = 2 S^2 - sum_a x_a^2 <= 2 S^2,

and the products are off by at most 10 eps S^2 in all.  Summing the r^2
terms adds at most r^2 eps sum_k |T_k| |S_k| <= r^2 eps S^2 (Cauchy-Schwarz
on each pair's Re and Im terms).  The frame-wise reference, |u|^2 of
u = sum_c m_c p_c, has u off by at most (r + 2) eps S, and taking the
modulus and squaring it add at most 3 eps S^2, so it is off by at most
(2 r + 7) eps S^2.  The two differ by at most

    (r^2 + 2 r + 17) eps S^2

per entry.  The assertion keeps the constant r^2 + 2 r + 12, written down
before the comparison from an entry error of 2 eps |z| for the pair
entries too, which holds only where they do not cancel: it is tighter than
this proof by 5 eps S^2.  The differences seen are far inside it, at most
5.0, 6.5 and 9.3 eps S^2 for r = 2, 4 and 8 and 17.6 eps S^2 for the
chain rule's r = 8 cubic rows (60 seeds, 256 points, 129 nodes), against
asserted constants of 20, 36, 92 and 92.

Below float64's normal range a product's rounding is absolute instead, at
most eta = 2^-1075 (sums are exact there), and both paths start from the
same factor rows.  The time modulations, and products of them, have modulus
at most 1, so the Hermitian time entries are at most 2: a space entry (two
products) and its term add at most 5 eta each, 5 r^2 eta over the r^2
terms.  The reference's r complex products add at most 3 eta each to u,
which |u|^2 doubles times |u| <= S, and the modulus and the square add 2
eta.  So the bound gains (5 r^2 + 6 r S + 2) eta, which (3 r^2 + 4 r S + 1)
2^-1074 covers; it counts only where S^2 is about 1e-308 or less, as at the
tails of the chain rule's cubic rows.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nlsa_lab.estimates import (
    _PacketField,
    _chain_rule_images,
    _outer_rows,
    _two_sided_images,
    check_chain_rules,
    check_leibniz_two_sided,
    check_smoothing,
    check_sup_embedding,
    random_spacetime_packets,
)
from nlsa_lab.spectral import EquationParams, Grid, apply_symbols

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def rounding_bound(time_rows, norms, sigma, num_points):
    """The module docstring's bound for factor rows with l^2 norms ``norms``."""
    k = len(time_rows)
    scale = float(np.sum(np.max(np.abs(time_rows), axis=1) * norms))
    return 2 * (4 * math.log2(num_points) + 2 * k + 8) * EPS * float(np.max(sigma)) * scale


def l2_rows(rows):
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1))


def frames_of(field):
    """The frame stack of a field, one frame at a time."""
    return np.array([field.frame(k).values for k in range(field.times.size)])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(0.0, 1.0, exclude_min=True),
    num_points=st.sampled_from([128, 256, 512]),
    time_nodes=st.sampled_from([17, 129]),
)
def test_factor_images_agree_with_the_frame_wise_multiplier(seed, s, num_points, time_nodes):
    f, g = random_spacetime_packets(2, np.random.default_rng(seed))
    grid = Grid(num_points, 60.0)
    times = np.linspace(0.0, 1.0, time_nodes)
    sigma, half = np.abs(grid.xi_fft) ** s, np.abs(grid.xi_fft) ** (s / 2)
    mf, pf = f.factors(grid.x, times)
    mg, pg = g.factors(grid.x, times)
    uf, ug = f.sample(grid.x, times), g.sample(grid.x, times)

    # D u and D(|u|^2 u) of the chain rule
    du, dcubic = (frames_of(image) for image in _chain_rule_images(mf, pf, grid, times, sigma))
    (du_frames,) = apply_symbols(uf, sigma)
    (dcubic_frames,) = apply_symbols(np.abs(uf) ** 2 * uf, sigma)
    assert np.max(np.abs(du - du_frames)) <= rounding_bound(
        mf, l2_rows(pf), sigma, num_points)
    cubic_time = np.array([ma * np.conj(mb) * mc for ma in mf for mb in mf for mc in mf])
    cubic_norms = np.array([
        np.linalg.norm(pa * np.conj(pb) * pc) for pa in pf for pb in pf for pc in pf
    ])
    assert np.max(np.abs(dcubic - dcubic_frames)) <= rounding_bound(
        cubic_time, cubic_norms, sigma, num_points)

    # the two-sided defect and the half-derivative images of both factors
    defect, f_half, g_half = (
        frames_of(image) for image in _two_sided_images(f, g, grid, times, sigma, half)
    )
    (dfg,) = apply_symbols(uf * ug, sigma)
    (df,) = apply_symbols(uf, sigma)
    (dg,) = apply_symbols(ug, sigma)
    defect_frames = dfg - uf * dg - ug * df
    pair_time = np.array([ma * mb for ma in mf for mb in mg])
    pair_norms = np.array([np.linalg.norm(pa) * np.linalg.norm(qb) for pa in pf for qb in pg])
    assert np.max(np.abs(defect - defect_frames)) <= 3 * rounding_bound(
        pair_time, pair_norms, sigma, num_points)
    for image, u, (m, p) in ((f_half, uf, (mf, pf)), (g_half, ug, (mg, pg))):
        (frames,) = apply_symbols(u, half)
        assert np.max(np.abs(image - frames)) <= rounding_bound(
            m, l2_rows(p), half, num_points)


def test_no_frame_stack_is_transformed_in_the_factor_sweeps(monkeypatch):
    f, g = random_spacetime_packets(2, np.random.default_rng(7))
    shapes = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name,
            lambda a, *args, _t=transform, _n=name, **kw: shapes.append((_n, np.shape(a)))
            or _t(a, *args, **kw),
        )
    smoothing = lambda fields: check_smoothing(EquationParams(a=0.0, b=1.0), fields=fields)
    for sweep, fields, rows, forward, inverse in (
        # the spatial rows, for all four horizons; their quarter derivatives
        (check_sup_embedding, [f], 2, 1, 1),
        # the rows of u and of |u|^2 u, and their images
        (check_chain_rules, [f], 8, 2, 2),
        # the rows of f, of g and of f g; five images
        (check_leibniz_two_sided, [(f, g)], 4, 3, 5),
        # the forcing's spatial rows; the LHS is read off the transform side
        (smoothing, [f], 2, 1, 0),
    ):
        shapes.clear()
        sweep(fields=fields)
        # every transform takes a few spatial rows, never the 129 to 513
        # frames of a time grid
        assert shapes and all(len(shape) == 2 and shape[0] <= rows for _, shape in shapes)
        # per field at both scales
        assert sum(name == "fft" for name, _ in shapes) == forward * 2
        assert sum(name == "ifft" for name, _ in shapes) == inverse * 2


def test_l2_in_time_norms_form_no_abs_squared(monkeypatch):
    # the smoothing RHS (L^1_x L^2_T) and the two-sided Leibniz LHS
    # (L^2_x L^2_T) read their fields by the Gram contraction alone
    f, g = random_spacetime_packets(2, np.random.default_rng(7))
    formed = []
    abs_squared = _PacketField.abs_squared
    monkeypatch.setattr(
        _PacketField, "abs_squared",
        lambda self: formed.append(len(self._time_rows)) or abs_squared(self),
    )
    check_smoothing(EquationParams(a=0.0, b=1.0), fields=[f])
    assert formed == []
    # the defect (rank 4) is never squared; f's and g's half-derivative
    # images (rank 2) are, for their L^4_x L^4_T norms, at both scales
    check_leibniz_two_sided(fields=[(f, g)])
    assert formed == [2, 2, 2, 2]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([2, 4, 8, "cubic"]),
    num_points=st.sampled_from([128, 256, 512]),
    time_nodes=st.sampled_from([17, 129]),
)
def test_factor_abs_squared_agrees_with_the_frames_modulus(seed, rows, num_points, time_nodes):
    grid = Grid(num_points, 60.0)
    times = np.linspace(0.0, 1.0, time_nodes)
    # a rank-2r field is the sum of r rank-2 packets; "cubic" is the chain
    # rule's rank-8 |u|^2 u of one packet u, rows u, conj(u), u
    packets = random_spacetime_packets(1 if rows == "cubic" else rows // 2,
                                       np.random.default_rng(seed))
    factors = [f.factors(grid.x, times) for f in packets]
    m = np.concatenate([mf for mf, _ in factors])
    p = np.concatenate([pf for _, pf in factors])
    if rows == "cubic":
        m = _outer_rows(_outer_rows(m, m.conj()), m)
        p = _outer_rows(_outer_rows(p, p.conj()), p)
    rank = len(m)
    got = _PacketField(grid, times, m, p).abs_squared()
    want = np.abs(m.T @ p) ** 2
    envelope = np.abs(m).T @ np.abs(p)
    bound = ((rank**2 + 2 * rank + 12) * EPS * envelope**2
             + (3 * rank**2 + 4 * rank * envelope + 1) * TINY)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)
