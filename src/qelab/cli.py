"""Experiment orchestration: config parsing, grid execution, CSV reports.

Subcommands: generate-graph, spectrum, qe-diag, qe-kernel, green-moments,
esd, check-conditions, run.  Every subcommand takes --config and --out; the
fully resolved configuration (defaults filled in) is echoed into the output
directory so a run can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 config/schema violation, 3 compute-budget guard,
4 numerical-invariant violation (enabled by --strict-invariants).

All CSV output is RFC-4180 with '.' decimal separator and floats at 17
significant digits; re-running a command with identical config and seeds
yields byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from . import anderson, esd, graphs, qe, tree_green
from ._rng import derive_key
from .errors import BudgetError, ConfigError, InvariantError

DEFAULT_CONFIG = {
    "q": 2,
    "n_values": [250],
    "graph_seeds": [101],
    "pot_seeds": [201],
    "epsilon": 0.2,
    "potential": {
        "kind": "uniform",
        "support_bound": 1.0,
        "holder_exponent": 1.0,
        "holder_constant": 0.5,
        "allow_atomic": False,
    },
    "lambda0": 2.4,
    "eta0_values": [0.2],
    "observable": {"kind": "indicator", "alpha": 0.5, "constant": 1.0, "vertex": 0,
                   "seed": 17, "path": None},
    "kernel": {"shape": "edges", "range": 1, "value": 1.0},
    "mc": {
        "samples": 256,
        "depth": None,
        "lambda_spacing": 0.05,
        "leaf_mode": "free",
        "seed": 911,
        "eta_grid": [0.05, 0.1, 0.2, 0.4],
        "lambda_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "s_values": [1.0, 2.0],
        "work_cap": tree_green.DEFAULT_WORK_CAP,
    },
    "conditions": {"c_lower": 0.1, "c_upper": 10.0, "bst_radii": [1, 2, 3, 4]},
    "esd": {"reference": "kesten-mckay", "bins": 200},
    "lln": {"k_max": 4},
    "output": {"per_eigenvalue": False, "spectrum_dump": False},
}


def _merge(defaults, override, path="config"):
    if not isinstance(override, dict):
        raise ConfigError(f"{path} must be a JSON object")
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {path}.{key}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            out[key] = value
    return out


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate; raises ConfigError on schema violations."""
    cfg = _merge(DEFAULT_CONFIG, raw)
    q = cfg["q"]
    if not isinstance(q, int) or q < 2:
        raise ConfigError("q must be an integer >= 2")
    band = 2.0 * math.sqrt(q)
    lam0 = cfg["lambda0"]
    if not (0.0 < lam0 < band):
        raise ConfigError(
            f"lambda0 = {lam0} must lie in the open interval (0, 2*sqrt(q)) = (0, {band:.6f}); "
            "the energy window of the ergodicity statements is (-2*sqrt(q), 2*sqrt(q))"
        )
    if any(e <= 0 for e in cfg["eta0_values"]):
        raise ConfigError("eta0 values must be positive")
    if len(cfg["graph_seeds"]) != len(cfg["pot_seeds"]):
        raise ConfigError("graph_seeds and pot_seeds must pair up (equal lengths)")
    if not cfg["n_values"]:
        raise ConfigError("n_values must not be empty")
    obs = cfg["observable"]
    if obs["kind"] not in {"constant", "indicator", "delta", "file"}:
        raise ConfigError(f"unsupported observable kind {obs['kind']!r}")
    if obs["kind"] == "file" and not obs["path"]:
        raise ConfigError("file observables need observable.path")
    if obs["kind"] == "constant" and abs(obs["constant"]) > 1.0:
        raise ConfigError("constant observables need |c| <= 1")
    if obs["kind"] == "indicator" and not (0.0 < obs["alpha"] < 1.0):
        raise ConfigError("indicator fraction alpha must lie in (0, 1)")
    ker = cfg["kernel"]
    if ker["shape"] not in {"edges", "ring", "diagonal"}:
        raise ConfigError(f"unsupported kernel shape {ker['shape']!r}")
    if abs(ker["value"]) > 1.0:
        raise ConfigError("kernel value must satisfy |value| <= 1 (sup bound)")
    if ker["shape"] == "edges" and ker["range"] != 1:
        raise ConfigError("edge kernels have range 1")
    mc = cfg["mc"]
    if mc["leaf_mode"] not in {"bare", "free"}:
        raise ConfigError("mc.leaf_mode must be 'bare' or 'free'")
    if mc["samples"] < 2:
        raise ConfigError("mc.samples must be at least 2")
    if mc["lambda_spacing"] <= 0:
        raise ConfigError("mc.lambda_spacing must be positive")
    if cfg["lln"]["k_max"] > esd.LLN_K_CAP:
        raise ConfigError(f"lln.k_max exceeds the cap {esd.LLN_K_CAP}")
    if cfg["esd"]["reference"] not in {"kesten-mckay", "ids"}:
        raise ConfigError("esd.reference must be 'kesten-mckay' or 'ids'")
    _potential_spec(cfg)
    # resolve the MC depth now so the echoed config pins it
    if mc["depth"] is None:
        eta_min = min(cfg["eta0_values"])
        mc["depth"] = tree_green.suggest_depth(q, max(eta_min, 0.05), work_cap=mc["work_cap"])
    return cfg


def _potential_spec(cfg) -> anderson.PotentialSpec:
    pot = cfg["potential"]
    return anderson.PotentialSpec(
        kind=pot["kind"],
        support_bound=pot["support_bound"],
        holder_exponent=pot["holder_exponent"],
        holder_constant=pot["holder_constant"],
        allow_atomic=pot["allow_atomic"],
    )


def _build_observable(cfg, n: int) -> qe.Observable:
    obs = cfg["observable"]
    return qe.make_observable(
        obs["kind"], n, seed=obs["seed"], constant=obs["constant"],
        alpha=obs["alpha"], vertex=obs["vertex"], path=obs["path"],
    )


def _build_kernel(cfg, g: graphs.RegularGraph) -> qe.Kernel:
    ker = cfg["kernel"]
    if ker["shape"] == "edges":
        return qe.edge_kernel(g, ker["value"])
    if ker["shape"] == "ring":
        return qe.ring_kernel(g, ker["range"], ker["value"])
    obs = _build_observable(cfg, g.n)
    return qe.diagonal_kernel(obs)


def _profile_lambda_grid(cfg) -> np.ndarray:
    lam0 = cfg["lambda0"]
    spacing = cfg["mc"]["lambda_spacing"]
    count = int(round(2 * lam0 / spacing)) + 1
    return np.linspace(-lam0, lam0, max(count, 2))


def _check_cavity_bounds(viol, where: str) -> None:
    if int(viol[:3].sum()) > 0:
        raise InvariantError(
            f"cavity bound violations in {where}: sign={viol[0]} "
            f"cap={viol[1]} floor={viol[2]}"
        )


def _build_profiles(cfg, strict: bool):
    """One distance-ratio profile per eta0 (potential-independent)."""
    mc = cfg["mc"]
    r_max = cfg["kernel"]["range"]
    profiles = {}
    for j, eta0 in enumerate(cfg["eta0_values"]):
        profiles[eta0] = tree_green.distance_ratio_profile(
            cfg["q"], _potential_spec(cfg), cfg["epsilon"], eta0, r_max,
            _profile_lambda_grid(cfg), mc["samples"],
            derive_key(mc["seed"], "profile-eta", j),
            depth=mc["depth"], leaf_mode=mc["leaf_mode"],
        )
        if strict:
            _check_cavity_bounds(profiles[eta0].violations, f"profile at eta0={eta0}")
    return profiles


# ----------------------------------------------------------------------
# CSV helpers
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\r\n")


def _echo_config(cfg, out_dir) -> None:
    path = os.path.join(out_dir, "config_resolved.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


# ----------------------------------------------------------------------
# grid-point evaluation
# ----------------------------------------------------------------------


def _grid(cfg):
    return [
        (n, gs, ps)
        for n in cfg["n_values"]
        for gs, ps in zip(cfg["graph_seeds"], cfg["pot_seeds"])
    ]


def _evaluate_point(args):
    """Full pipeline for one (n, graph seed, pot seed) grid point."""
    cfg, n, gs, ps, strict, stages = args
    q = cfg["q"]
    spec = _potential_spec(cfg)
    g = graphs.generate_random_regular(n, q, gs)
    out = {"n": n, "gs": gs, "ps": ps}

    if "conditions" in stages:
        exp = graphs.exp_check(g)
        inj = graphs.injectivity_radius(g)
        out["beta"] = exp.beta
        out["second_modulus"] = exp.second_modulus
        out["connected"] = exp.connected
        out["bst"] = [inj.small_radius_fraction(r) for r in cfg["conditions"]["bst_radii"]]
        if strict and not exp.connected:
            raise InvariantError(f"graph n={n} seed={gs} is disconnected (expansion failure)")

    if "graphs" in stages:
        out["graph_json"] = {
            "n": g.n,
            "q": g.q,
            "edges": [[int(u), int(v)] for u, v in g.edges],
        }

    needs_spectrum = {"spectrum", "qe-diag", "qe-kernel", "esd"} & set(stages)
    if needs_spectrum:
        observable = _build_observable(cfg, n)
        kernel = _build_kernel(cfg, g)  # built before the potential: independence
        pot = anderson.sample_potential(n, spec, cfg["epsilon"], ps)
        sd = anderson.eigendecompose(anderson.assemble(g, pot))
        if strict:
            anderson.check_spectrum_bound(sd, q, pot.epsilon, spec.support_bound)
            trace = float(np.sum(sd.eigenvalues))
            expected = pot.epsilon * float(np.sum(pot.omega))
            scale = max(abs(expected), n * 1e-3)
            if abs(trace - expected) > 1e-8 * scale:
                raise InvariantError("trace identity violated: sum(lambda) != eps*sum(omega)")

        if "spectrum" in stages:
            out["spectrum"] = anderson.spectrum_rows(sd)
        if "qe-diag" in stages:
            rep = qe.qe_statistic_diag(sd, observable, cfg["lambda0"], q=q)
            out["qe_diag"] = rep
        if "qe-kernel" in stages:
            reports = {}
            for eta0 in cfg["eta0_values"]:
                curve = qe.kernel_average_simple(kernel, stages["qe-kernel"][eta0])
                reports[eta0] = qe.qe_statistic_kernel(
                    sd, kernel, cfg["lambda0"], curve, eta0=eta0, q=q
                )
            out["qe_kernel"] = reports
        if "esd" in stages:
            if cfg["esd"]["reference"] == "kesten-mckay":
                cdf = esd.kesten_mckay_cdf(q)
            else:
                cdf = esd.ids_cdf(
                    q, spec, cfg["epsilon"], cfg["eta0_values"][0],
                    cfg["mc"]["samples"], derive_key(cfg["mc"]["seed"], "ids"),
                    depth=cfg["mc"]["depth"], leaf_mode=cfg["mc"]["leaf_mode"],
                )
            out["esd"] = esd.esd_compare(sd, cdf)
        if "lln" in stages:
            out["lln"] = esd.lln_moment_check(g, pot, cfg["lln"]["k_max"])
    return out


def _run_grid(cfg, stages, threads: int, strict: bool):
    tasks = [(cfg, n, gs, ps, strict, stages) for (n, gs, ps) in _grid(cfg)]
    if threads <= 1 or len(tasks) == 1:
        return [_evaluate_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_evaluate_point, tasks))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _seed_label(gs, ps):
    return f"{gs}:{ps}"


def _write_conditions(cfg, out_dir, results):
    header = ["n", "seed", "beta", "second_modulus", "connected"] + [
        f"bst_r{r}" for r in cfg["conditions"]["bst_radii"]
    ]
    rows = [
        [res["n"], res["gs"], res["beta"], res["second_modulus"], res["connected"]] + res["bst"]
        for res in results
    ]
    write_csv(os.path.join(out_dir, "conditions_graphs.csv"), header, rows)


def _write_spectra(out_dir, results):
    sdir = os.path.join(out_dir, "spectra")
    os.makedirs(sdir, exist_ok=True)
    for res in results:
        path = os.path.join(sdir, f"spectrum_n{res['n']}_g{res['gs']}_p{res['ps']}.csv")
        write_csv(path, ["index", "eigenvalue"], res["spectrum"])


def _write_esd(cfg, out_dir, results):
    rows = [
        [res["n"], _seed_label(res["gs"], res["ps"]), cfg["epsilon"],
         cfg["esd"]["reference"], res["esd"]]
        for res in results
    ]
    write_csv(os.path.join(out_dir, "esd.csv"),
              ["n", "seed", "epsilon", "reference", "distance"], rows)


def _write_lln(out_dir, results):
    ldir = os.path.join(out_dir, "lln")
    os.makedirs(ldir, exist_ok=True)
    for res in results:
        rows = [(c.k, c.graph_moment, c.tree_moment, c.abs_diff) for c in res["lln"]]
        write_csv(
            os.path.join(ldir, f"lln_n{res['n']}_g{res['gs']}_p{res['ps']}.csv"),
            ["k", "graph_moment", "tree_moment", "abs_diff"], rows,
        )


def cmd_generate_graph(cfg, out_dir, threads, strict):
    results = _run_grid(cfg, {"graphs": None, "conditions": None}, threads, strict)
    gdir = os.path.join(out_dir, "graphs")
    os.makedirs(gdir, exist_ok=True)
    for res in results:
        path = os.path.join(gdir, f"graph_n{res['n']}_s{res['gs']}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(res["graph_json"], f, separators=(",", ":"), sort_keys=True)
            f.write("\n")
    _write_conditions(cfg, out_dir, results)


def cmd_spectrum(cfg, out_dir, threads, strict):
    _write_spectra(out_dir, _run_grid(cfg, {"spectrum": None}, threads, strict))


def _qe_rows(cfg, results, key):
    rows = []
    for res in results:
        if key == "qe_diag":
            rep = res["qe_diag"]
            rows.append([res["n"], _seed_label(res["gs"], res["ps"]), cfg["epsilon"],
                         rep.lambda0, rep.eta0, rep.r_max, rep.statistic, rep.window_count])
        else:
            for eta0, rep in res["qe_kernel"].items():
                rows.append([res["n"], _seed_label(res["gs"], res["ps"]), cfg["epsilon"],
                             rep.lambda0, eta0, rep.r_max, rep.statistic, rep.window_count])
    return rows


QE_HEADER = ["n", "seed", "epsilon", "lambda0", "eta0", "R", "statistic", "window_count"]


def _write_per_eigenvalue(cfg, out_dir, results, key):
    if not cfg["output"]["per_eigenvalue"]:
        return
    edir = os.path.join(out_dir, "eigenrows")
    os.makedirs(edir, exist_ok=True)
    for res in results:
        reports = {0.0: res[key]} if key == "qe_diag" else res["qe_kernel"]
        for eta0, rep in (reports.items() if isinstance(reports, dict) else []):
            path = os.path.join(
                edir, f"{key}_n{res['n']}_g{res['gs']}_p{res['ps']}_eta{eta0}.csv"
            )
            rows = [
                (i, lam, complex(b).real, complex(a).real)
                for (i, lam, b, a) in rep.per_eigenvalue_rows()
            ]
            write_csv(path, ["i", "lambda_i", "bracket", "average"], rows)


def _write_qe(cfg, out_dir, results, key):
    write_csv(os.path.join(out_dir, f"{key}.csv"), QE_HEADER, _qe_rows(cfg, results, key))
    _write_per_eigenvalue(cfg, out_dir, results, key)


def cmd_qe_diag(cfg, out_dir, threads, strict):
    _write_qe(cfg, out_dir, _run_grid(cfg, {"qe-diag": None}, threads, strict), "qe_diag")


def cmd_qe_kernel(cfg, out_dir, threads, strict):
    profiles = _build_profiles(cfg, strict)
    results = _run_grid(cfg, {"qe-kernel": profiles}, threads, strict)
    _write_qe(cfg, out_dir, results, "qe_kernel")


def _moment_table(cfg, strict):
    mc = cfg["mc"]
    table = tree_green.green_condition_moments(
        cfg["q"], _potential_spec(cfg), cfg["epsilon"],
        mc["lambda_grid"], mc["eta_grid"], mc["s_values"],
        mc["samples"], derive_key(mc["seed"], "moments"),
        depth=mc["depth"], leaf_mode=mc["leaf_mode"], work_cap=mc["work_cap"],
    )
    if strict:
        _check_cavity_bounds(table.total_violations(), "moment sweep")
    return table


def cmd_green_moments(cfg, out_dir, threads, strict):
    table = _moment_table(cfg, strict)
    write_csv(
        os.path.join(out_dir, "green_moments.csv"),
        ["lambda", "eta", "s", "estimate", "stderr", "kind"],
        table.csv_rows(),
    )
    return table


def cmd_esd(cfg, out_dir, threads, strict):
    _write_esd(cfg, out_dir, _run_grid(cfg, {"esd": None}, threads, strict))
    band = 2.0 * math.sqrt(cfg["q"])
    lam_grid = np.linspace(-band, band, 401)
    dens = esd.kesten_mckay_densities(lam_grid, cfg["q"])
    write_csv(os.path.join(out_dir, "density_km.csv"), ["lambda", "density"], zip(lam_grid, dens))


def cmd_check_conditions(cfg, out_dir, threads, strict):
    cmd_generate_graph(cfg, out_dir, threads, strict)
    table = cmd_green_moments(cfg, out_dir, threads, strict)
    inf_abs, sup_sq = table.bounds()
    c_lower = cfg["conditions"]["c_lower"]
    c_upper = cfg["conditions"]["c_upper"]
    pot_ok = _potential_spec(cfg).continuous
    write_csv(
        os.path.join(out_dir, "green_flags.csv"),
        ["threshold_c", "threshold_C", "inf_abs_mean", "sup_square_mean",
         "pass_lower", "pass_upper", "pot_continuous"],
        [[c_lower, c_upper, inf_abs, sup_sq, inf_abs >= c_lower, sup_sq <= c_upper, pot_ok]],
    )


def cmd_run(cfg, out_dir, threads, strict):
    profiles = _build_profiles(cfg, strict)
    stages = {
        "conditions": None,
        "qe-diag": None,
        "qe-kernel": profiles,
        "esd": None,
        "lln": None,
    }
    if cfg["output"]["spectrum_dump"]:
        stages["spectrum"] = None
    results = _run_grid(cfg, stages, threads, strict)
    _write_conditions(cfg, out_dir, results)
    _write_qe(cfg, out_dir, results, "qe_diag")
    _write_qe(cfg, out_dir, results, "qe_kernel")
    _write_esd(cfg, out_dir, results)
    _write_lln(out_dir, results)
    if cfg["output"]["spectrum_dump"]:
        _write_spectra(out_dir, results)


COMMANDS = {
    "generate-graph": cmd_generate_graph,
    "spectrum": cmd_spectrum,
    "qe-diag": cmd_qe_diag,
    "qe-kernel": cmd_qe_kernel,
    "green-moments": cmd_green_moments,
    "esd": cmd_esd,
    "check-conditions": cmd_check_conditions,
    "run": cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelab",
        description="Quantum-ergodicity laboratory for the Anderson model on regular graphs",
    )
    parser.add_argument("--version", action="version", version=f"qelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--strict-invariants", action="store_true",
                       help="escalate numerical-invariant violations to exit 4")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = resolve_config(raw)
        os.makedirs(args.out, exist_ok=True)
        _echo_config(cfg, args.out)
        COMMANDS[args.command](cfg, args.out, args.threads, args.strict_invariants)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
