"""End-to-end acceptance checks, one test and one printed verdict per shipped
guarantee.

Each test exercises a full workflow (spectral identities, quadrature
cross-validation, bound sweeps, solver regressions, CLI determinism) at desk
scale, prints a single ``[criterion NN] PASS/FAIL`` line with the measured
numbers, and asserts on it.  Run with ``pytest -v`` for the checklist or
``pytest -s`` to see the measurements.
"""

import json
import math
import time
import warnings

import numpy as np

from nlsa_lab import cli
from nlsa_lab.estimates import (
    check_chain_rules,
    check_commutator,
    check_leibniz_band,
    check_leibniz_two_sided,
    check_smoothing,
    check_sup_embedding,
)
from nlsa_lab.norms import l2_norm
from nlsa_lab.oscillatory import (
    PhiProfile,
    RegionLabel,
    arc_exponent_check,
    band_sum_report,
    build_probe_grid,
    decay_bound_check,
    intermediate_count,
    run_probe,
)
from nlsa_lab.picard import (
    BoundaryMassWarning,
    PicardConfig,
    conjugate_derivative_difference_split,
    cubic_difference_split,
    derivative_difference_split,
    nonlinearity_eval,
    persistence_report,
    picard_iterate,
    reduction_preset,
    semigroup_evolve,
    soliton_oracle,
)
from nlsa_lab.spectral import (
    EquationParams,
    Grid,
    GridFunction,
    dft_forward,
    eta,
    fractional_derivative,
    propagator_apply,
    qn_apply,
    qn_m_apply,
    spatial_derivative,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _random_field(grid: Grid, rng: np.random.Generator) -> GridFunction:
    vals = rng.standard_normal(grid.num_points) + 1j * rng.standard_normal(
        grid.num_points
    )
    return GridFunction(grid, vals)


def _bandlimited_field(grid: Grid, rng: np.random.Generator, kmax: int = 40
                       ) -> GridFunction:
    spec = np.zeros(grid.num_points, dtype=complex)
    idx = np.arange(-kmax, kmax + 1)
    spec[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return GridFunction(grid, np.fft.ifft(spec))


# ---------------------------------------------------------------------------
# 1. spectral identities
# ---------------------------------------------------------------------------

def test_criterion_01_spectral_identities():
    start = time.perf_counter()
    grid = Grid(1024, 60.0)
    params = EquationParams(a=1.0, b=1.0)
    rng = np.random.default_rng(2026)
    xi_abs = np.abs(grid.conjugate().x)
    live = xi_abs > 0
    bands = range(-4, 7)
    worst = 0.0

    for _ in range(100):
        f = _random_field(grid, rng)
        norm = l2_norm(f)

        fhat = dft_forward(f)
        plancherel = abs(norm**2 - l2_norm(fhat) ** 2 / (2 * np.pi)) / norm**2
        worst = max(worst, plancherel)

        t1, t2 = rng.uniform(0.1, 1.0, size=2)
        unitarity = abs(l2_norm(propagator_apply(f, t1, params)) - norm) / norm
        grouped = propagator_apply(f, t1 + t2, params)
        chained = propagator_apply(propagator_apply(f, t2, params), t1, params)
        group_law = l2_norm(
            GridFunction(grid, grouped.values - chained.values)
        ) / norm
        worst = max(worst, unitarity, group_law)

        once = fractional_derivative(f, 1.0)
        twice = fractional_derivative(fractional_derivative(f, 0.5), 0.5)
        half_comp = l2_norm(GridFunction(grid, twice.values - once.values)) / l2_norm(
            once
        )
        worst = max(worst, half_comp)

        total = np.zeros_like(xi_abs)
        for n in bands:
            total += eta(xi_abs * 2.0 ** (-n))
        worst = max(worst, float(np.abs(total[live] - 1.0).max()))

        for n in (-2, 0, 2, 4):
            lhs = qn_apply(fractional_derivative(f, 0.125), n)
            rhs = qn_m_apply(f, n, 0.125)
            scale = l2_norm(lhs)
            if scale == 0.0:
                continue
            gap = l2_norm(
                GridFunction(grid, lhs.values - 2.0 ** (n * 0.125) * rhs.values)
            )
            worst = max(worst, gap / scale)

    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"5 identity families on 100 fields at 1024 points: "
        f"max relative error {worst:.3e} (tol 1e-9), {elapsed:.1f}s (cap 10s)",
    )


# ---------------------------------------------------------------------------
# 2. contour vs direct quadrature
# ---------------------------------------------------------------------------

def test_criterion_02_contour_vs_direct():
    start = time.perf_counter()
    ms = (0.0, 1.0 / 16.0, 1.0 / 8.0)
    for m in ms:
        PhiProfile.cached(m)
    specs = build_probe_grid(
        omegas=(2**8, 2**10, 2**12, 2**14, 2**16),
        ab_pairs=(
            (0.0, 1.0), (0.0, -1.0), (1.0, 1.0),
            (1.0, -1.0), (2.0, 1.0), (2.0, -1.0),
        ),
        ms=ms,
        t_request=0.5,
    )
    probes = [run_probe(*s) for s in specs]
    elapsed = time.perf_counter() - start

    near = sum(p.label is RegionLabel.NEAR for p in probes)
    far = sum(p.label is RegionLabel.FAR for p in probes)
    all_converged = all(p.converged for p in probes)
    all_agree = all(p.agrees for p in probes)
    ok = (
        len(probes) >= 200
        and near > 0
        and far > 0
        and all_converged
        and all_agree
        and elapsed < 300.0
    )
    _report(
        2,
        ok,
        f"{len(probes)} probes ({near} near, {far} far), "
        f"converged={all_converged}, agree at 1e-6 rel={all_agree}, "
        f"{elapsed:.0f}s (cap 300s)",
    )


# ---------------------------------------------------------------------------
# 3. decay-bound sweep stability and pointwise arc inequalities
# ---------------------------------------------------------------------------

def _bound_sweep(omegas):
    probes = []
    for t_request in (0.1, 1.0):
        specs = build_probe_grid(
            omegas=omegas,
            ab_pairs=((0.0, 1.0), (1.0, -1.0)),
            ms=(1.0 / 16.0, 1.0 / 8.0),
            t_request=t_request,
            near_fracs=(0.35, 0.8),
            far_fracs=(1.5,),
            intermediate_fracs=(0.5, 3.0),
        )
        probes.extend(run_probe(*s) for s in specs)
    return probes


def test_criterion_03_bound_constants_and_arcs():
    base = _bound_sweep((2**8, 2**12, 2**16))
    dense = _bound_sweep((2**8, 2**10, 2**12, 2**14, 2**16))
    fits_base = decay_bound_check(base)
    fits_dense = decay_bound_check(dense)

    changes = {}
    finite = True
    for label in RegionLabel:
        c_base = fits_base[label].fitted_constant
        c_dense = fits_dense[label].fitted_constant
        finite &= math.isfinite(c_base) and math.isfinite(c_dense) and c_base > 0
        changes[label.value] = abs(c_dense - c_base) / c_base
    stable = all(v < 0.20 for v in changes.values())

    seen = set()
    arcs_hold = True
    worst_margin = math.inf
    for p in base:
        if p.label is RegionLabel.INTERMEDIATE:
            continue
        key = (p.a, p.b, p.t, p.omega, p.xi)
        if key in seen:
            continue
        seen.add(key)
        arc = arc_exponent_check(p.a, p.b, p.t, p.omega, p.xi, n_theta=1000)
        arcs_hold &= arc.holds
        worst_margin = min(worst_margin, arc.min_margin)

    change_txt = ", ".join(f"{k} {v:.1%}" for k, v in changes.items())
    _report(
        3,
        finite and stable and arcs_hold,
        f"fitted constants finite, density-doubling changes: {change_txt} "
        f"(cap 20%); arc inequalities hold at 1000 angles on {len(seen)} "
        f"contours (worst margin {worst_margin:.3g})",
    )


# ---------------------------------------------------------------------------
# 4. band sums bounded and the intermediate-band count
# ---------------------------------------------------------------------------

def _direct_intermediate_count(xi, a, b, t):
    half = a / (2.0 * b)
    r = ((xi + half) ** 2 - half * half) * abs(b) * t
    if r <= 0.0:
        return 0
    n_lo = max(1, math.ceil(math.log2(r / 100.0)))
    n_hi = math.ceil(math.log2(100.0 * r)) - 1
    return max(0, n_hi - n_lo + 1)


def test_criterion_04_band_sums_and_counts():
    ratios = {}
    stable = True
    healthy = True
    for a, b in ((0.0, 1.0), (1.0, 1.0)):
        for t in (0.5, 1.0, 2.0, 4.0):
            rep = band_sum_report(a, b, t, 0.125, num_points=2**20)
            fine = band_sum_report(a, b, t, 0.125, num_points=2**21)
            ratios[(a, b, t)] = rep.ratio
            stable &= (
                math.isfinite(rep.ratio)
                and rep.ratio > 0
                and abs(fine.ratio - rep.ratio) <= 0.20 * rep.ratio
            )
            healthy &= not rep.tail_warning

    xis = [0.37, 1.9, -3.3, 7.77, -15.2, 33.1, -64.9, 130.7, 261.5, -523.9]
    combos = [(0.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.0, 1.0, 2.0), (1.0, 1.0, 4.0)]
    counts_match = all(
        intermediate_count(xi, *combos[i % 4]) == _direct_intermediate_count(
            xi, *combos[i % 4]
        )
        for i, xi in enumerate(xis)
    )

    top = max(ratios.values())
    _report(
        4,
        stable and healthy and counts_match,
        f"8 band-sum ratios finite and refinement-stable (sup {top:.3f}, "
        f"no tail warnings); intermediate-band counts match the closed "
        f"form on {len(xis)} frequencies: {counts_match}",
    )


# ---------------------------------------------------------------------------
# 5. solver exactness on linear and zero problems
# ---------------------------------------------------------------------------

def test_criterion_05_solver_exactness():
    grid = Grid(512, 60.0)
    linear = EquationParams(a=1.0, b=1.0)
    config = PicardConfig(horizon=0.1, time_nodes=32)
    u0 = GridFunction(grid, np.exp(-grid.x**2 / 2.0) * (1.0 + 0.5j))

    solution, report = picard_iterate(u0, linear, config)
    free = semigroup_evolve(u0, config.times(), linear)
    free_gap = float(np.max(np.abs(solution.frames - free.frames)))
    linear_ok = (
        len(report.distances) == 1
        and report.distances[0] < 1e-12
        and free_gap < 1e-12
    )

    zero = GridFunction(grid, np.zeros(grid.num_points))
    zero_solution, zero_report = picard_iterate(zero, reduction_preset("mkdv"), config)
    zero_ok = (
        float(np.max(np.abs(zero_solution.frames))) == 0.0
        and len(zero_report.distances) == 1
    )

    _report(
        5,
        linear_ok and zero_ok,
        f"linear problem: 1 iteration, step distance "
        f"{report.distances[0]:.2e} (tol 1e-12), matches free flow to "
        f"{free_gap:.2e}; zero data stays exactly zero",
    )


# ---------------------------------------------------------------------------
# 6. soliton regression and horizon gain of the contraction ratio
# ---------------------------------------------------------------------------

def test_criterion_06_soliton_regression():
    grid = Grid(1024, 60.0)
    # Scale 0.3 keeps the soliton wide enough that the Duhamel integral is
    # dispersion-dominated (t * xi^3 << 1 across its spectrum), where the
    # contraction constant is linear in the horizon; the ~2.5e-4 relative
    # boundary mass of that width is measured by the error assertion below.
    soliton = soliton_oracle("mkdv", 0.3)
    u0 = GridFunction(grid, soliton(grid.x, 0.0))
    params = soliton.params()

    ratios = {}
    rel_err = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMassWarning)
        for horizon in (0.05, 0.025):
            config = PicardConfig(
                horizon=horizon, time_nodes=64, xt_tolerance=1e-12
            )
            solution, report = picard_iterate(u0, params, config)
            ratios[horizon] = report.ratio
            if horizon == 0.05:
                exact = soliton(grid.x, horizon)
                rel_err = l2_norm(
                    GridFunction(grid, solution.frames[-1] - exact)
                ) / l2_norm(GridFunction(grid, exact))

    halves = ratios[0.025] <= 0.5 * ratios[0.05]
    _report(
        6,
        rel_err < 1e-4 and ratios[0.05] < 0.5 and halves,
        f"relative L2 error {rel_err:.2e} at t=0.05 (tol 1e-4); "
        f"contraction ratio {ratios[0.05]:.4f} -> {ratios[0.025]:.4f} "
        f"under horizon halving (factor {ratios[0.025] / ratios[0.05]:.3f}, "
        f"needs <= 0.5)",
    )


# ---------------------------------------------------------------------------
# 7. pointwise cubic identities
# ---------------------------------------------------------------------------

def test_criterion_07_cubic_identities():
    grid = Grid(256, 40.0)
    params = reduction_preset("nlsa-default")
    rng = np.random.default_rng(7)
    worst = 0.0

    def gap(pieces, target):
        err = float(np.max(np.abs(sum(pieces) - target)))
        scale = max(1.0, float(np.max(np.abs(target))))
        return err / scale

    for _ in range(100):
        fu = _bandlimited_field(grid, rng)
        fv = _bandlimited_field(grid, rng)
        u, v = fu.values, fv.values
        du = spatial_derivative(fu).values
        dv = spatial_derivative(fv).values

        merged = nonlinearity_eval(fu, params, full_derivative_mode=True)
        term_wise = nonlinearity_eval(fu, params, full_derivative_mode=False)
        worst = max(worst, gap([merged.values], term_wise.values))

        worst = max(
            worst,
            gap(cubic_difference_split(u, v), np.abs(v) ** 2 * v - np.abs(u) ** 2 * u),
            gap(
                derivative_difference_split(u, v, du, dv),
                np.abs(v) ** 2 * dv - np.abs(u) ** 2 * du,
            ),
            gap(
                conjugate_derivative_difference_split(u, v, du, dv),
                v**2 * np.conj(dv) - u**2 * np.conj(du),
            ),
        )

    _report(
        7,
        worst < 1e-10,
        f"merged-derivative evaluation and 3 difference factorizations on "
        f"100 field pairs: max pointwise error {worst:.3e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 8. norm persistence under two presets
# ---------------------------------------------------------------------------

def test_criterion_08_persistence():
    factors = []
    drifts = []
    for preset, horizon in (("mkdv", 0.05), ("nlsa-default", 0.02)):
        params = reduction_preset(preset)
        histories = {}
        for nodes, points in ((64, 1024), (128, 2048)):
            grid = Grid(points, 60.0)
            u0 = GridFunction(grid, 1.0 / np.cosh(grid.x))
            solution, _ = picard_iterate(
                u0, params, PicardConfig(horizon=horizon, time_nodes=nodes)
            )
            norms = persistence_report(solution, params)
            histories[nodes] = (
                np.asarray(norms.h_quarter_history),
                np.asarray(norms.weighted_history),
            )
        for coarse, fine in zip(histories[64], histories[128]):
            factors.append(float(coarse.max() / coarse[0]))
            factors.append(float(coarse[0] / coarse.min()))
            drifts.append(float(np.max(np.abs(fine[::2] - coarse) / coarse)))

    within_4 = max(factors) <= 4.0
    stable = max(drifts) <= 0.01
    _report(
        8,
        within_4 and stable,
        f"Sobolev and weighted-norm histories within {max(factors):.4f}x of "
        f"initial (cap 4x) on both presets; refinement drift "
        f"{max(drifts):.2e} (cap 1%)",
    )


# ---------------------------------------------------------------------------
# 9. inequality sweeps stable under refinement
# ---------------------------------------------------------------------------

def test_criterion_09_estimate_sweeps():
    sweeps = [
        check_smoothing(EquationParams(a=0.0, b=1.0)),
        check_sup_embedding(),
        check_commutator(),
        check_leibniz_band(),
        check_chain_rules(),
        check_leibniz_two_sided(),
    ]
    stable = all(s.refinement_stable for s in sweeps)
    finite = all(math.isfinite(s.max_ratio) and s.max_ratio > 0 for s in sweeps)
    embedding = next(s for s in sweeps if s.name == "sup-embedding")
    gain_positive = embedding.exponent_fit > 0

    drift_txt = ", ".join(f"{s.name} {s.drift:.1%}" for s in sweeps)
    _report(
        9,
        stable and finite and gain_positive,
        f"all 6 sweeps refinement-stable (drifts: {drift_txt}; cap 20%); "
        f"fitted horizon gain {embedding.exponent_fit:.3f} > 0",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical reruns of the command-line suite
# ---------------------------------------------------------------------------

def _write_configs(cfg_dir):
    cfg_dir.mkdir()
    solve = cfg_dir / "solve.json"
    solve.write_text(
        json.dumps(
            {
                "seed": 11,
                "equation": {"preset": "mkdv"},
                "grid": {"num_points": 256, "length": 60.0},
                "time": {"horizon": 0.02, "nodes": 16},
                "initial_data": {
                    "kind": "soliton",
                    "name": "mkdv",
                    "amplitude": 1.0,
                },
            }
        )
    )
    osc = cfg_dir / "oscillatory.json"
    osc.write_text(
        json.dumps(
            {
                "seed": 11,
                "omegas": [256.0, 1024.0],
                "ab_pairs": [[0.0, 1.0]],
                "m_values": [0.125],
                "t_request": 0.5,
                "arc_samples": 200,
            }
        )
    )
    est = cfg_dir / "estimates.json"
    est.write_text(
        json.dumps(
            {
                "seed": 7,
                "estimates": ["commutator", "leibniz-band"],
                "samples": 6,
            }
        )
    )
    return solve, osc, est


def _run_suite(solve, osc, est, out_dir):
    rc = [
        cli.main(["solve", "--config", str(solve), "--out", str(out_dir / "solve")]),
        cli.main(
            ["verify-oscillatory", "--config", str(osc), "--out", str(out_dir / "osc")]
        ),
        cli.main(
            ["verify-estimates", "--config", str(est), "--out", str(out_dir / "est")]
        ),
        cli.main(["report", "--out", str(out_dir)]),
    ]
    return rc


def _snapshot(out_dir):
    tree = {}
    for path in out_dir.rglob("*"):
        if not path.is_file():
            continue
        rel = str(path.relative_to(out_dir))
        if path.name == "manifest.json":
            record = json.loads(path.read_text())
            record.pop("duration_seconds")
            tree[rel] = record
        else:
            tree[rel] = path.read_bytes()
    return tree


def test_criterion_10_deterministic_reruns(tmp_path):
    solve, osc, est = _write_configs(tmp_path / "cfg")
    out = tmp_path / "run"

    rc_a = _run_suite(solve, osc, est, out)
    first = _snapshot(out)
    rc_b = _run_suite(solve, osc, est, out)
    second = _snapshot(out)
    assert rc_a == [0, 0, 0, 0], rc_a
    assert rc_b == [0, 0, 0, 0], rc_b

    assert sorted(first) == sorted(second)
    mismatches = [rel for rel in first if first[rel] != second[rel]]

    json_count = sum(1 for rel in first if rel.endswith(".json"))
    _report(
        10,
        not mismatches,
        f"rerunning solve + both verifiers + report: {len(first)} artifacts "
        f"({json_count} JSON) byte-identical apart from manifest wall-clock"
        + (f"; MISMATCHES: {mismatches}" if mismatches else ""),
    )
