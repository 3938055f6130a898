import concurrent.futures
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
                       ({"mc": {"samples": True}}, "mc.samples"),
                       ({"n_values": [250.0]}, "n_values"),
                       ({"eta0_values": []}, "eta0_values"),
                       ({"mc": {"lambda_grid": []}}, "mc.lambda_grid"),
                       ({"mc": {"eta_grid": []}}, "mc.eta_grid"),
                       ({"potential": {"kind": "two-point", "allow_atomic": "false"}},
                        "potential.allow_atomic"),
                       ({"output": {"per_eigenvalue": "false"}}, "output.per_eigenvalue"),
                       ({"output": {"spectrum_dump": 1}}, "output.spectrum_dump")]:
        with pytest.raises(ConfigError, match=field):
            cli.resolve_config(raw)
    for n_values in ([65], [2]):
        with pytest.raises(ConfigError, match="regular graph"):
            cli.resolve_config({"n_values": n_values})


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
    cfg_dict = dict(MINI, n_values=[48, 64], graph_seeds=[1, 2], pot_seeds=[11, 12])
    cfg = _write(tmp_path, cfg_dict)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert _read_all(out1) == _read_all(out2)


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
