import concurrent.futures
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qelab
from qelab import cli
from qelab.errors import ConfigError

MINI = {
    "q": 2,
    "n_values": [64],
    "graph_seeds": [1],
    "pot_seeds": [11],
    "epsilon": 0.2,
    "lambda0": 2.0,
    "eta0_values": [0.2],
    "mc": {"samples": 32, "depth": 8, "lambda_spacing": 0.5},
    "lln": {"k_max": 3},
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _child_env():
    """The environment with the directory that holds the imported qelab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qelab.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _read_all(out_dir):
    out = {}
    for p in sorted(Path(out_dir).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(out_dir))] = p.read_bytes()
    return out


def test_resolve_config_defaults_and_validation():
    cfg = cli.resolve_config({"q": 2, "lambda0": 1.0})
    assert cfg["potential"]["kind"] == "uniform"
    assert cfg["mc"]["depth"] is not None
    with pytest.raises(ConfigError, match="2\\*sqrt\\(q\\)"):
        cli.resolve_config({"q": 2, "lambda0": 2 * math.sqrt(2)})
    with pytest.raises(ConfigError, match="unknown config field"):
        cli.resolve_config({"q": 2, "lambda_zero": 1.0})
    with pytest.raises(ConfigError):
        cli.resolve_config({"graph_seeds": [1, 2], "pot_seeds": [1]})
    with pytest.raises(ConfigError):
        cli.resolve_config({"eta0_values": [0.0]})
    for shape in ("ring", "diagonal"):
        for bad_range in (-1, 1.5, "2"):
            with pytest.raises(ConfigError, match="kernel.range"):
                cli.resolve_config({"kernel": {"shape": shape, "range": bad_range}})
    for raw, field in [({"mc": {"samples": "4"}}, "mc.samples"),
                       ({"lambda0": "1.0"}, "lambda0"),
                       ({"eta0_values": ["0.2"]}, "eta0_values"),
                       ({"mc": {"depth": 12.5}}, "mc.depth"),
                       ({"mc": {"depth": 0}}, "mc.depth"),
                       ({"mc": {"depth": -3}}, "mc.depth"),
                       ({"mc": {"samples": True}}, "mc.samples"),
                       ({"n_values": [250.0]}, "n_values"),
                       ({"eta0_values": []}, "eta0_values"),
                       ({"mc": {"lambda_grid": []}}, "mc.lambda_grid"),
                       ({"mc": {"eta_grid": []}}, "mc.eta_grid"),
                       ({"potential": {"kind": "two-point", "allow_atomic": "false"}},
                        "potential.allow_atomic"),
                       ({"output": {"per_eigenvalue": "false"}}, "output.per_eigenvalue"),
                       ({"output": {"spectrum_dump": 1}}, "output.spectrum_dump"),
                       ({"kernel": {"shape": ["edges"]}}, "kernel.shape"),
                       ({"potential": {"kind": {"a": 1}}}, "potential.kind"),
                       ({"mc": {"leaf_mode": ["free"]}}, "mc.leaf_mode"),
                       ({"observable": {"kind": ["delta"]}}, "observable.kind"),
                       ({"observable": {"kind": "file", "path": 3}}, "observable.path")]:
        with pytest.raises(ConfigError, match=field):
            cli.resolve_config(raw)
    for n_values in ([65], [2]):
        with pytest.raises(ConfigError, match="regular graph"):
            cli.resolve_config({"n_values": n_values})


# one fault each, for rules that no other test reaches, with the name the
# error message gives the field
ONE_FAULT = [
    ({"mc": 3}, "config.mc"),
    ({"q": 1}, "q = 1"),
    ({"observable": {"kind": "gaussian"}}, "observable kind"),
    ({"observable": {"kind": "file"}}, "observable.path"),
    ({"observable": {"kind": "constant", "constant": -1.5}}, "constant"),
    ({"observable": {"alpha": 1.0}}, "alpha"),
    ({"kernel": {"shape": "star"}}, "kernel shape"),
    ({"kernel": {"shape": "ring", "value": 1.5}}, "kernel value"),
    ({"kernel": {"range": 2}}, "range"),
    ({"mc": {"leaf_mode": "open"}}, "mc.leaf_mode"),
    ({"mc": {"samples": 1}}, "mc.samples"),
    ({"mc": {"lambda_spacing": 0.0}}, "mc.lambda_spacing"),
    ({"lln": {"k_max": 13}}, "lln.k_max"),
    ({"esd": {"reference": "semicircle"}}, "esd.reference"),
    ({"potential": {"kind": "gaussian"}}, "potential kind"),
    ({"potential": {"support_bound": 0.0}}, "support_bound"),
    ({"eta0_values": [0.2, 0.1, 0.2]}, "eta0_values"),
    ({"mc": {"eta_grid": [0.0, 0.1]}}, "eta must be strictly positive"),
    ({"mc": {"s_values": [-1.0]}}, "inverse-moment exponents"),
    ({"kernel": {"shape": "ring", "range": 4}, "mc": {"depth": 4}}, "too shallow for distance 4"),
]


@pytest.mark.parametrize("fault,named", ONE_FAULT)
def test_one_fault_config_exits_2_before_any_work(tmp_path, monkeypatch, fault, named):
    from qelab import tree_green

    def unreachable(*args, **kwargs):
        raise AssertionError("the profile was built for a config with a fault")

    monkeypatch.setattr(tree_green, "distance_ratio_profile", unreachable)
    raw = dict(MINI, **fault)
    with pytest.raises(ConfigError, match=named):
        cli.resolve_config(raw)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", _write(tmp_path, raw), "--out", str(out),
                     "--threads", "1"]) == 2
    assert not out.exists()  # the config is rejected before it is echoed


def test_bad_n_rejected_before_the_profile(tmp_path, monkeypatch):
    from qelab import tree_green

    def unreachable(*args, **kwargs):
        raise AssertionError("the profile was built for a config with a bad n")

    monkeypatch.setattr(tree_green, "distance_ratio_profile", unreachable)
    cfg = _write(tmp_path, {"n_values": [65], "mc": {"depth": 6}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 2


def test_unpinned_depth_hits_the_profile_budget_at_once(tmp_path, monkeypatch):
    # the README's minimal config without mc.depth: the depth resolves to 22,
    # and the profile's 97 lambdas x 256 balls of 1.26e7 nodes (run), the
    # moment table's 20 points x 256 balls of 8.4e6 nodes (check-conditions),
    # or the ids reference's 129 grid points x 256 balls of 1.26e7 nodes
    # (esd) exceed the Monte-Carlo work cap before any ball or graph is built
    from qelab import _kernels, graphs

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the budget guard")

    monkeypatch.setattr(_kernels, "tree_batch", unreachable)
    monkeypatch.setattr(graphs, "generate_random_regular", unreachable)
    raw = {"q": 2, "n_values": [250, 1000], "graph_seeds": [101, 102], "pot_seeds": [201, 202],
           "epsilon": 0.2, "lambda0": 2.4, "eta0_values": [0.2]}
    assert cli.resolve_config(raw)["mc"]["depth"] == 22
    for command, extra in (("run", {}), ("check-conditions", {}),
                           ("esd", {"esd": {"reference": "ids"}})):
        cfg = _write(tmp_path, dict(raw, **extra), f"{command}.json")
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["config_resolved.json"]


def test_exit_codes(tmp_path):
    bad_window = dict(MINI, lambda0=3.0)
    assert cli.main(["run", "--config", _write(tmp_path, bad_window), "--out", str(tmp_path / "o1"), "--threads", "1"]) == 2
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", "--config", missing, "--out", str(tmp_path / "o2")]) == 2
    over_budget = dict(MINI, mc={"samples": 32, "depth": 40, "lambda_spacing": 0.5, "leaf_mode": "bare"})
    assert cli.main(["green-moments", "--config", _write(tmp_path, over_budget, "b.json"), "--out", str(tmp_path / "o3"), "--threads", "1"]) == 3
    work_cap = dict(MINI, mc={"samples": 32, "depth": 8, "work_cap": 1 << 20})
    assert cli.main(["green-moments", "--config", _write(tmp_path, work_cap, "w.json"), "--out", str(tmp_path / "o4"), "--threads", "1"]) == 2


def test_run_outputs_and_determinism(tmp_path):
    cfg = _write(tmp_path, MINI)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2), "--threads", "1"]) == 0
    files1, files2 = _read_all(out1), _read_all(out2)
    assert set(files1) == set(files2)
    for name in files1:
        assert files1[name] == files2[name], f"{name} differs between runs"
    assert "qe_diag.csv" in files1 and "qe_kernel.csv" in files1
    assert "esd.csv" in files1 and "conditions_graphs.csv" in files1
    assert "lln/lln_n64_g1_p11.csv" in files1


def test_resolved_echo_reproduces_run(tmp_path):
    cfg = _write(tmp_path, MINI)
    out1 = tmp_path / "first"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    echo = out1 / "config_resolved.json"
    out2 = tmp_path / "second"
    assert cli.main(["run", "--config", str(echo), "--out", str(out2), "--threads", "1"]) == 0
    files1, files2 = _read_all(out1), _read_all(out2)
    assert files1 == files2


def test_threads_do_not_change_output(tmp_path):
    # a grid of four points, and the empty grid
    grids = [dict(n_values=[48, 64], graph_seeds=[1, 2], pot_seeds=[11, 12]),
             dict(graph_seeds=[], pot_seeds=[])]
    for i, grid in enumerate(grids):
        cfg = _write(tmp_path, dict(MINI, **grid), f"grid{i}.json")
        out1, out2 = tmp_path / f"t1_{i}", tmp_path / f"t2_{i}"
        assert cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert _read_all(out1) == _read_all(out2)
    # the empty grid's per-point files hold only their header
    assert (out1 / "qe_diag.csv").read_text().count("\n") == 1


def test_threads_default_to_the_cpus_this_process_may_use(monkeypatch):
    # the affinity mask, not the machine's CPU count, where the platform has one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    args = cli.build_parser().parse_args(["run", "--config", "c.json", "--out", "o"])
    assert args.threads == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    args = cli.build_parser().parse_args(["run", "--config", "c.json", "--out", "o"])
    assert args.threads == 8


def test_empty_grid_builds_no_per_point_inputs(tmp_path, monkeypatch):
    # with no grid point, the per-point stages build neither the profile nor
    # the ids reference, and write only their headers; the moment table,
    # which check-conditions writes whatever the grid, is still built
    from qelab import tree_green

    def unreachable(*args, **kwargs):
        raise AssertionError("a profile was built for a grid without points")

    monkeypatch.setattr(tree_green, "distance_ratio_profile", unreachable)
    # depth 40 would put the profile far beyond the Monte-Carlo work cap
    cfg = dict(MINI, graph_seeds=[], pot_seeds=[], esd={"reference": "ids"},
               mc={"samples": 32, "depth": 40, "lambda_spacing": 0.5})
    path = _write(tmp_path, cfg)
    for command, csv in [("qe-kernel", "qe_kernel.csv"), ("esd", "esd.csv"), ("run", "esd.csv")]:
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--out", str(out), "--threads", "1"]) == 0
        assert (out / csv).read_text().count("\n") == 1
    out = tmp_path / "check"
    cfg["mc"]["depth"] = 6
    assert cli.main(["check-conditions", "--config", _write(tmp_path, cfg), "--out", str(out),
                     "--threads", "1"]) == 0
    assert (out / "green_moments.csv").read_text().count("\n") > 1


def test_zero_disorder_constant_observable_zero_column(tmp_path):
    cfg = dict(MINI, epsilon=0.0, observable={"kind": "constant", "constant": 1.0})
    out = tmp_path / "zero"
    assert cli.main(["run", "--config", _write(tmp_path, cfg, "z.json"), "--out", str(out), "--threads", "1"]) == 0
    lines = (out / "qe_diag.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        assert float(line.split(",")[6]) <= 1e-12


def test_green_moments_free_column(tmp_path):
    cfg = dict(
        MINI,
        epsilon=0.0,
        mc={"samples": 16, "depth": 8, "lambda_spacing": 0.5, "leaf_mode": "free",
            "eta_grid": [0.0], "lambda_grid": [0.0, 0.5, 1.0], "s_values": [1.0]},
    )
    out = tmp_path / "gm"
    assert cli.main(["green-moments", "--config", _write(tmp_path, cfg, "g.json"), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "green_moments.csv").read_text().strip().splitlines()[1:]
    abs_rows = [r.split(",") for r in rows if r.endswith("abs_mean")]
    assert len(abs_rows) == 3
    for row in abs_rows:
        lam = float(row[0])
        assert float(row[3]) == math.sqrt(4 * 2 - lam * lam) / (2 * 2)
        assert float(row[4]) == 0.0


def test_check_conditions_outputs(tmp_path):
    out = tmp_path / "cc"
    assert cli.main(["check-conditions", "--config", _write(tmp_path, MINI), "--out", str(out), "--threads", "1"]) == 0
    assert (out / "conditions_graphs.csv").exists()
    assert (out / "green_moments.csv").exists()
    flags = (out / "green_flags.csv").read_text().splitlines()
    assert flags[0] == "threshold_c,threshold_C,inf_abs_mean,sup_square_mean,pass_lower,pass_upper,pot_continuous"
    cond = (out / "conditions_graphs.csv").read_text().splitlines()
    assert cond[0] == "n,seed,beta,second_modulus,connected,bst_r1,bst_r2,bst_r3,bst_r4"


def test_k4_config_bst_flagged(tmp_path):
    cfg = dict(MINI, n_values=[4])
    out = tmp_path / "k4"
    assert cli.main(["generate-graph", "--config", _write(tmp_path, cfg, "k4.json"), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "conditions_graphs.csv").read_text().strip().splitlines()[1:]
    fields = rows[0].split(",")
    assert float(fields[5]) == 1.0  # every vertex has rho < 1 on K4
    graph = json.loads((out / "graphs" / "graph_n4_s1.json").read_text())
    assert graph["n"] == 4 and len(graph["edges"]) == 6


def test_spectrum_dump(tmp_path):
    out = tmp_path / "sp"
    assert cli.main(["spectrum", "--config", _write(tmp_path, MINI), "--out", str(out), "--threads", "1"]) == 0
    lines = (out / "spectra" / "spectrum_n64_g1_p11.csv").read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 65
    dump = dict(MINI, output={"per_eigenvalue": False, "spectrum_dump": True})
    assert cli.main(["run", "--config", _write(tmp_path, dump, "dump.json"), "--out", str(tmp_path / "r"), "--threads", "1"]) == 0
    assert (tmp_path / "r" / "spectra" / "spectrum_n64_g1_p11.csv").read_bytes() == \
        (out / "spectra" / "spectrum_n64_g1_p11.csv").read_bytes()
    assert cli.main(["run", "--config", _write(tmp_path, MINI), "--out", str(tmp_path / "r0"), "--threads", "1"]) == 0
    assert not (tmp_path / "r0" / "spectra").exists()


def test_console_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "qelab.cli", "--version"], capture_output=True, text=True,
        env=_child_env(),
    )
    assert res.returncode == 0
    assert "qelab" in res.stdout


def test_import_and_run_leave_scipy_unloaded(tmp_path):
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import qelab, qelab.cli\n"
        "after_import = scipy_modules()\n"
        "code = qelab.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--threads', '1'])\n"
        "print(json.dumps([code, after_import, scipy_modules()]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, _write(tmp_path, MINI), str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, [], []]


def test_import_config_and_graph_leave_numpy_random_unloaded():
    # graph pairings come from the counter streams; numpy.random would also
    # load secrets, hashlib and OpenSSL
    code = (
        "import json, sys\n"
        "import qelab, qelab.cli\n"
        "from qelab import graphs\n"
        "qelab.cli.resolve_config({})\n"
        "graphs.generate_random_regular(1000, 2, 0)\n"
        "print(json.dumps([m for m in ('numpy.random', 'secrets') if m in sys.modules]))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env())
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def test_import_and_one_thread_run_leave_multiprocessing_unloaded(tmp_path):
    # the process pool is imported by the grid only when it runs on threads > 1
    code = (
        "import json, sys\n"
        "import qelab.cli\n"
        "after_import = 'multiprocessing' in sys.modules\n"
        "code = qelab.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--threads', '1'])\n"
        "print(json.dumps([code, after_import, 'multiprocessing' in sys.modules]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, _write(tmp_path, MINI), str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, False, False]


def test_spectrum_beyond_the_dense_cap_exits_3(tmp_path):
    cfg = dict(MINI, n_values=[5000])
    out = tmp_path / "o"
    assert cli.main(["spectrum", "--config", _write(tmp_path, cfg), "--out", str(out),
                     "--threads", "1"]) == 3
    assert sorted(p.name for p in out.rglob("*")) == ["config_resolved.json"]


def test_per_eigenvalue_dump(tmp_path):
    cfg = dict(MINI, eta0_values=[0.2, 0.3], output={"per_eigenvalue": True, "spectrum_dump": False})
    expected = {
        "qe-diag": ["qe_diag_n64_g1_p11_eta0.0.csv"],
        "qe-kernel": ["qe_kernel_n64_g1_p11_eta0.2.csv", "qe_kernel_n64_g1_p11_eta0.3.csv"],
    }
    for command, names in expected.items():
        out = tmp_path / command
        assert cli.main([command, "--config", _write(tmp_path, cfg, "pe.json"), "--out", str(out), "--threads", "1"]) == 0
        files = sorted((out / "eigenrows").glob("*.csv"))
        assert [f.name for f in files] == names
        for f in files:
            lines = f.read_text().strip().splitlines()
            assert lines[0] == "i,lambda_i,bracket,average"
            assert len(lines) > 1


def test_ids_reference(tmp_path):
    cfg = dict(
        MINI,
        esd={"reference": "ids"},
        mc={"samples": 16, "depth": 6, "lambda_spacing": 0.5},
    )
    out = tmp_path / "ids"
    assert cli.main(["esd", "--config", _write(tmp_path, cfg, "ids.json"), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "esd.csv").read_text().strip().splitlines()[1:]
    assert rows and rows[0].split(",")[3] == "ids"
    assert 0.0 <= float(rows[0].split(",")[4]) <= 1.0


@pytest.mark.parametrize("kernel", [{"shape": "ring", "range": 2}, {"shape": "ring", "range": 0},
                                    {"shape": "diagonal"}, {"shape": "diagonal", "range": 8}])
def test_kernel_shapes_match_in_process_statistic(tmp_path, kernel):
    from qelab import anderson, graphs, qe, tree_green
    from qelab._rng import derive_key

    # a diagonal kernel reaches distance 0 whatever its range field says,
    # so range 8 needs no deeper balls than MINI's depth 8
    raw = dict(MINI, kernel=kernel)
    out = tmp_path / "k"
    assert cli.main(["qe-kernel", "--config", _write(tmp_path, raw), "--out", str(out),
                     "--threads", "1"]) == 0
    row = (out / "qe_kernel.csv").read_text().splitlines()[1].split(",")
    # MINI's grid point, potential, observable and Monte-Carlo settings
    mc, spec = cli.resolve_config(raw)["mc"], anderson.PotentialSpec()
    g = graphs.generate_random_regular(64, 2, 1)
    sd = anderson.eigendecompose(anderson.assemble(g, anderson.sample_potential(64, spec, 0.2, 11)))
    if kernel["shape"] == "ring":
        ker = qe.ring_kernel(g, kernel["range"])
    else:
        ker = qe.diagonal_kernel(qe.make_observable("indicator", 64, seed=17, alpha=0.5))
    profile = tree_green.distance_ratio_profile(
        2, spec, 0.2, 0.2, kernel["range"] if kernel["shape"] == "ring" else 0,
        np.linspace(-2.0, 2.0, 9), mc["samples"],
        derive_key(mc["seed"], "profile"), depth=8, leaf_mode="free",
    )
    rep = qe.qe_statistic_kernel(sd, ker, 2.0, qe.kernel_average_simple(ker, profile), q=2)
    assert rep.window_count > 0
    assert row[6] == format(rep.statistic, ".17g")


def test_file_observable_config(tmp_path):
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps([((-1) ** i) * 0.5 for i in range(64)]))
    cfg = dict(MINI, observable={"kind": "file", "path": str(obs_path)})
    out = tmp_path / "fo"
    assert cli.main(["qe-diag", "--config", _write(tmp_path, cfg, "fo.json"), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "qe_diag.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 1


@pytest.mark.parametrize("kind", ["file", "delta"])
def test_bad_observable_fails_only_where_read(tmp_path, kind):
    observable = {"kind": "file", "path": str(tmp_path / "missing.json")}
    if kind == "delta":
        observable = {"kind": "delta", "vertex": 100}  # out of range at n=64
    cfg = _write(tmp_path, dict(MINI, observable=observable), "bad.json")
    for command in ("spectrum", "esd", "qe-kernel"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command), "--threads", "1"]) == 0
    assert cli.main(["qe-diag", "--config", cfg, "--out", str(tmp_path / "qd"), "--threads", "1"]) == 2


def test_process_pool_capped_at_grid_size(tmp_path, monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # the grid imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = dict(MINI, n_values=[48, 64], mc={"samples": 8, "depth": 6, "lambda_spacing": 1.0})
    assert cli.main(["spectrum", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"), "--threads", "16"]) == 0
    assert seen == [2]
    assert len(list((tmp_path / "o" / "spectra").glob("*.csv"))) == 2


def test_strict_invariants_healthy_run(tmp_path):
    out = tmp_path / "strict"
    code = cli.main(["run", "--config", _write(tmp_path, MINI), "--out", str(out),
                     "--threads", "1", "--strict-invariants"])
    assert code == 0


def test_strict_invariants_exit_code(tmp_path, monkeypatch):
    from qelab import qe
    from qelab.errors import InvariantError

    def boom(*args, **kwargs):
        raise InvariantError("cavity sign bound violated at 3 nodes")

    monkeypatch.setattr(qe, "qe_statistic_diag", boom)
    code = cli.main(["run", "--config", _write(tmp_path, MINI), "--out", str(tmp_path / "x"), "--threads", "1"])
    assert code == 4


def test_strict_invariants_profile_violation(tmp_path, monkeypatch):
    import dataclasses

    from qelab import tree_green

    real = tree_green.distance_ratio_profile

    def injected(*args, **kwargs):
        prof = real(*args, **kwargs)
        return dataclasses.replace(prof, violations=prof.violations + np.array([1, 0, 0, 0]))

    monkeypatch.setattr(tree_green, "distance_ratio_profile", injected)
    cfg = _write(tmp_path, MINI)
    for command in ("qe-kernel", "run"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", cfg, "--out", out, "--threads", "1",
                         "--strict-invariants"]) == 4
    assert cli.main(["qe-kernel", "--config", cfg, "--out", str(tmp_path / "lax"),
                     "--threads", "1"]) == 0


def test_strict_invariants_ids_violation(tmp_path, monkeypatch):
    import dataclasses

    from qelab import tree_green

    real = tree_green.distance_ratio_profile

    def injected(*args, **kwargs):
        prof = real(*args, **kwargs)
        return dataclasses.replace(prof, violations=prof.violations + np.array([0, 1, 0, 0]))

    monkeypatch.setattr(tree_green, "distance_ratio_profile", injected)
    cfg = _write(tmp_path, dict(MINI, esd={"reference": "ids"},
                                mc={"samples": 4, "depth": 4, "lambda_spacing": 0.5}))
    assert cli.main(["esd", "--config", cfg, "--out", str(tmp_path / "strict"), "--threads", "1",
                     "--strict-invariants"]) == 4
    assert cli.main(["esd", "--config", cfg, "--out", str(tmp_path / "lax"), "--threads", "1"]) == 0


def _moment_violation(real):
    """green_condition_moments with one sign violation added at its first point."""
    def injected(*args, **kwargs):
        table = real(*args, **kwargs)
        first = table.points[0]
        first = dataclasses.replace(first, violations=first.violations + np.array([1, 0, 0, 0]))
        return dataclasses.replace(table, points=[first] + table.points[1:])
    return injected


def _trace_shift(real):
    """eigendecompose with its lowest eigenvalue raised by 1e-3, inside the spectrum bound."""
    def injected(matrix):
        sd = real(matrix)
        vals = sd.eigenvalues.copy()
        vals[0] += 1e-3
        return dataclasses.replace(sd, eigenvalues=vals)
    return injected


def _disconnected(real):
    """exp_check reporting every graph disconnected."""
    return lambda g: dataclasses.replace(real(g), connected=False)


@pytest.mark.parametrize("command,module,name,inject", [
    ("green-moments", "tree_green", "green_condition_moments", _moment_violation),
    ("spectrum", "anderson", "eigendecompose", _trace_shift),
    ("generate-graph", "graphs", "exp_check", _disconnected),
])
def test_strict_invariants_exit_4_only_with_the_flag(tmp_path, monkeypatch, command, module,
                                                     name, inject):
    target = importlib.import_module(f"qelab.{module}")
    monkeypatch.setattr(target, name, inject(getattr(target, name)))
    args = [command, "--config", _write(tmp_path, MINI), "--threads", "1"]
    assert cli.main(args + ["--out", str(tmp_path / "strict"), "--strict-invariants"]) == 4
    assert cli.main(args + ["--out", str(tmp_path / "lax")]) == 0


# the benchmark tracer reads work and violation counters from the arguments
# (q, depth, samples, epsilon, graph) and the results (``.violations``, and
# ``GreenMomentTable.points``, ``.depth`` and ``.total_violations()``) of the
# functions it wraps; untraced benchmark runs would not notice a change that
# broke them.  Installed in a child process, its wrappers stay out of the
# other tests.
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from qelab import anderson, graphs, qe, tree_green
tracer = tracing.Tracer(tracing.TIME_GROUPS)
tracing.install(tracer)
spec = anderson.PotentialSpec()
tree_green.distance_ratio_profile(2, spec, 0.2, 0.2, 1, [-0.5, 0.5], 8, 1, 4)
tree_green.green_condition_moments(2, spec, 0.2, [0.0, 0.5], [0.2], [1.0], 8, 1, 4)
g = graphs.generate_random_regular(40, 2, 3)
pot = anderson.sample_potential(40, spec, 0.2, 4)
qe.kernel_average_general_curve(qe.edge_kernel(g), g, pot, [0.0, 0.5], 0.2, depth=6)
print(json.dumps(tracing.layer_metrics(tracer)))
"""


def test_tracer_reads_its_counters():
    tracer_py = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    source = tracer_py.read_bytes()
    res = subprocess.run([sys.executable, "-c", TRACED, str(tracer_py.parent)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    metrics = json.loads(res.stdout.splitlines()[-1])
    # 2 grid points x 8 balls of 31 nodes (q = 2, depth 4, q branches);
    # 2 lambdas x 40 vertices x 3 directed edges each x 5 rounds
    assert metrics["tree_green.cavity_nodes"] == 2 * 8 * 31
    assert metrics["tree_green.message_updates"] == 2 * 40 * 3 * 5
    assert metrics["tree_green.bound_violations"] == 0
    assert tracer_py.read_bytes() == source
