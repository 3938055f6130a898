"""Acceptance criteria, one test per criterion, each printing a PASS line.

The trend criteria consume the reference runs produced by the session
fixtures in conftest.py (q=2, N in {250, 1000, 2000}, eps=0.2, lambda0=2.4,
indicator observable at alpha=1/2, 5 seed pairs).
"""

import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import oracles
import pytest

from qelab import anderson, esd, graphs, qe, tree_green as tg

SPEC = anderson.PotentialSpec()


def _passed(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}", flush=True)


def _csv_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _median_statistic(rows, n):
    vals = [float(r["statistic"]) for r in rows if int(r["n"]) == n]
    assert len(vals) == 5
    return float(np.median(vals))


def test_criterion_01_green_oracle_equivalence():
    cases = []
    for q, depth in product((2, 3), (2, 3, 4)):
        for lam in (-1.0, 0.0, 0.7):
            cases.append((q, depth, lam))
    cases = (cases * 2)[:20]
    t0 = time.perf_counter()
    worst = 0.0
    for i, (q, depth, lam) in enumerate(cases):
        gamma = complex(lam, 0.1)
        h, _, _ = oracles.materialized_tree_operator(q, depth, q + 1, 0.4, SPEC, seed=1000 + i)
        dense_row = np.linalg.inv(h - gamma * np.eye(h.shape[0]))[0]
        row, _ = oracles.full_ball_green_row(q, depth, q + 1, 0.4, SPEC, gamma, seed=1000 + i)
        worst = max(worst, float(np.max(np.abs(dense_row - row))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _passed(1, f"20 materialized trees, max root-row error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_free_case_identities():
    z0 = tg.free_forward_green(0.0, 2)
    assert abs(z0 - (-1j / math.sqrt(2))) <= 1e-12

    z_fp = oracles.fixed_point_forward_green(0.5 + 0.1j, 2, tol=1e-12)
    z_quad = tg.free_forward_green_complex(0.5 + 0.1j, 2)
    assert abs(z_fp - z_quad) <= 1e-8

    lams = [0.0, 0.5, 1.0, 2.0]
    table = tg.green_condition_moments(
        2, SPEC, 0.0, lams, [0.0], [1.0], samples=64, seed=2, depth=12, leaf_mode="free"
    )
    for point, lam in zip(table.points, lams):
        want = math.sqrt(4 * 2 - lam * lam) / (2 * 2)
        assert point.abs_mean == want
        assert point.abs_stderr == 0.0

    km = oracles.kesten_mckay_density(0.0, 2)
    assert abs(km - 0.15005) <= 1e-5
    _passed(2, "free cavity value, fixed point, zero-variance moments, KM density")


def test_criterion_03_deterministic_bound_and_signs():
    lams = [-1.0, -0.5, 0.0, 0.5, 1.0]
    etas = [0.05, 0.1, 0.2, 0.4]
    table = tg.green_condition_moments(
        2, SPEC, 0.3, lams, etas, [1.0], samples=64, seed=33, depth=12
    )
    viol = table.total_violations()
    assert int(viol[3]) >= 1_000_000
    assert viol[:3].tolist() == [0, 0, 0]
    _passed(3, f"{int(viol[3])} cavity values checked, zero bound violations")


def test_criterion_04_diagonal_statistic_trend(reference_run):
    rows = _csv_rows(reference_run[0] / "qe_diag.csv")
    med = {n: _median_statistic(rows, n) for n in (250, 1000, 2000)}
    assert med[2000] < med[250]
    _passed(4, f"diagonal statistic medians {med[250]:.4f} (N=250) -> "
               f"{med[1000]:.4f} (N=1000) -> {med[2000]:.4f} (N=2000)")


def test_criterion_05_kernel_reduction_and_trend(reference_run, decompose_cache):
    # bitwise reduction at R = 0
    _, _, sd = decompose_cache(250, 101, 201, 0.2)
    obs = qe.make_observable("indicator", 250, seed=17, alpha=0.5)
    diag_rep = qe.qe_statistic_diag(sd, obs, 2.4, q=2)
    kernel = qe.diagonal_kernel(obs)
    kern_rep = qe.qe_statistic_kernel(sd, kernel, 2.4, qe.unit_diagonal_curve(kernel), q=2)
    assert kern_rep.statistic == diag_rep.statistic
    assert kern_rep.window_count == diag_rep.window_count
    # edge-kernel trend at eta0 = 0.2 from the reference run
    rows = _csv_rows(reference_run[0] / "qe_kernel.csv")
    med = {n: _median_statistic(rows, n) for n in (250, 1000, 2000)}
    assert med[2000] < med[250]
    _passed(5, f"R=0 report bitwise-equal; edge-kernel medians {med[250]:.4f} -> "
               f"{med[2000]:.4f}")


def test_criterion_06_average_equivalence(reference_profile):
    table = oracles.average_equivalence_check(
        2, SPEC, 0.2,
        [250, 1000],
        [(101, 201), (102, 202), (103, 203), (104, 204), (105, 205)],
        [-1.0, -0.5, 0.0, 0.5, 1.0],
        0.2,
        reference_profile,
        cover_depth=40,
    )
    assert table.medians[1] < table.medians[0]
    _passed(6, f"median |lifted - tree| {table.medians[0]:.5f} (N=250) -> "
               f"{table.medians[1]:.5f} (N=1000)")


def test_criterion_07_kesten_mckay_convergence(decompose_cache):
    cdf = esd.kesten_mckay_cdf(2)
    dists = {}
    for n in (250, 2000):
        vals = []
        for gs in (101, 102, 103, 104, 105):
            _, _, sd = decompose_cache(n, gs, gs, 0.0)
            vals.append(esd.esd_compare(sd, cdf))
        dists[n] = float(np.median(vals))
    assert dists[2000] < 0.05
    assert dists[2000] < dists[250]
    _passed(7, f"KS medians {dists[250]:.4f} (N=250) -> {dists[2000]:.4f} (N=2000)")


def test_criterion_08_lln_moment_matching(decompose_cache):
    g, _, _ = decompose_cache(2000, 101, 201, 0.2)
    gr = oracles.girth(g)
    pot0 = anderson.sample_potential(2000, SPEC, 0.0, seed=201)
    rows0 = esd.lln_moment_check(g, pot0, min(gr - 1, 6))
    for row in rows0:
        assert row.abs_diff == 0.0
    pot = anderson.sample_potential(2000, SPEC, 0.2, seed=201)
    rows = esd.lln_moment_check(g, pot, 2)
    k2 = rows[1]
    scale = 0.2**2 * float((pot.omega**2).std()) / math.sqrt(2000)
    assert k2.abs_diff <= 3 * scale
    _passed(8, f"girth {gr}: zero-disorder moments exact below girth; "
               f"k=2 gap {k2.abs_diff:.2e} <= 3*{scale:.2e}")


def test_criterion_09_jensen_consistency():
    lams = [-1.0, -0.5, 0.0, 0.5, 1.0]
    etas = [0.05, 0.1, 0.2, 0.4]
    table = tg.green_condition_moments(
        2, SPEC, 0.3, lams, etas, [1.0], samples=200, seed=77, depth=10
    )
    for p in table.points:
        inv, inv_err = p.inverse[1.0]
        slack = 3 * math.hypot(inv_err, p.abs_stderr / p.abs_mean**2)
        assert inv >= 1.0 / p.abs_mean - slack
    _passed(9, f"E|Im z|^-1 >= 1/E|Im z| at all {len(table.points)} grid points")


def test_criterion_10_determinism(reference_run):
    out_a, out_b = reference_run
    files_a = sorted(p.relative_to(out_a) for p in Path(out_a).rglob("*.csv"))
    files_b = sorted(p.relative_to(out_b) for p in Path(out_b).rglob("*.csv"))
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    _passed(10, f"{len(files_a)} CSV files byte-identical across two runs")
