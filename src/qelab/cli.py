"""Experiment orchestration: config parsing, grid execution, CSV reports.

Subcommands: generate-graph, spectrum, qe-diag, qe-kernel, green-moments,
esd, check-conditions, run.  Every subcommand takes --config and --out; the
fully resolved configuration (defaults filled in) is echoed into the output
directory so a run can be reproduced from its artifacts alone.

Each subcommand runs the stages that ``COMMANDS`` names; a stage (``STAGES``)
computes one value per (n, graph seed, pot seed) grid point, building only the
inputs it reads, and writes its files from those values.

Exit codes: 0 success, 2 config/schema violation, 3 compute-budget guard,
4 numerical-invariant violation (enabled by --strict-invariants).

All CSV output is RFC-4180 with '.' decimal separator and floats at 17
significant digits; re-running a command with identical config and seeds
yields byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    },
    "conditions": {"c_lower": 0.1, "c_upper": 10.0, "bst_radii": [1, 2, 3, 4]},
    "esd": {"reference": "kesten-mckay"},
    "lln": {"k_max": 4},
    "output": {"per_eigenvalue": False, "spectrum_dump": False},
}


def _merge(defaults, override, path="config"):
    """``defaults`` with the fields of ``override``, each checked against the
    type of its default as it is merged."""
    if not isinstance(override, dict):
        raise ConfigError(f"{path} must be a JSON object")
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        name = f"{path}.{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config field {name}")
        default = defaults[key]
        if isinstance(default, dict):
            out[key] = _merge(default, value, name)
            continue
        field = name.removeprefix("config.")
        if isinstance(default, list):
            accept, what = _TYPES[type(default[0])]
            if not isinstance(value, list) or not all(accept(v) for v in value):
                raise ConfigError(f"{field} must be a list, each entry {what}")
        elif default is not None or value is not None:
            accept, what = _TYPES[_NULLABLE[field] if default is None else type(default)]
            if not accept(value):
                raise ConfigError(f"{field} must be {what}, got {value!r}")
        out[key] = value
    return out


# each field takes the type of its default (a list default: a list of
# entries of its entries' type), checked and named as here
_TYPES = {
    # JSON true/false load as bool, a subclass of int
    int: (lambda value: type(value) is int, "an integer"),
    float: (lambda value: type(value) in (int, float) and math.isfinite(value), "a finite number"),
    bool: (lambda value: type(value) is bool, "true or false"),
    str: (lambda value: type(value) is str, "a string"),
}
# the type of a field whose default is null; null stays allowed there
_NULLABLE = {"mc.depth": int, "observable.path": str}


def _field(cfg, path: str):
    for part in path.split("."):
        cfg = cfg[part]
    return cfg


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate; raises ConfigError on schema violations."""
    cfg = _merge(DEFAULT_CONFIG, raw)
    q = cfg["q"]
    if any(e <= 0 for e in cfg["eta0_values"]):
        raise ConfigError("eta0 values must be positive")
    if len(set(cfg["eta0_values"])) != len(cfg["eta0_values"]):
        raise ConfigError("eta0_values must not repeat a value")
    if len(cfg["graph_seeds"]) != len(cfg["pot_seeds"]):
        raise ConfigError("graph_seeds and pot_seeds must pair up (equal lengths)")
    for path in ("n_values", "eta0_values", "mc.lambda_grid", "mc.eta_grid"):
        if not _field(cfg, path):
            raise ConfigError(f"{path} must not be empty")
    for n in cfg["n_values"]:
        graphs.check_order(n, q)
    qe.check_window(cfg["lambda0"], q)
    obs = cfg["observable"]
    qe.check_observable(obs["kind"], constant=obs["constant"], alpha=obs["alpha"], path=obs["path"])
    ker = cfg["kernel"]
    if ker["shape"] not in {"edges", "ring", "diagonal"}:
        raise ConfigError(f"unsupported kernel shape {ker['shape']!r}")
    qe.check_sup_bound(np.array([ker["value"]]), "kernel value")
    if ker["range"] < 0:
        raise ConfigError("kernel.range must be a nonnegative integer")
    if ker["shape"] == "edges" and ker["range"] != 1:
        raise ConfigError("edge kernels have range 1")
    mc = cfg["mc"]
    if mc["leaf_mode"] not in {"bare", "free"}:
        raise ConfigError("mc.leaf_mode must be 'bare' or 'free'")
    if mc["samples"] < 2:
        raise ConfigError("mc.samples must be at least 2")
    if mc["depth"] is not None and mc["depth"] < 1:
        raise ConfigError("mc.depth must be at least 1")
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
        mc["depth"] = tree_green.suggest_depth(q, max(eta_min, 0.05))
    for eta in mc["eta_grid"]:
        tree_green.check_eta(eta, cfg["epsilon"], mc["leaf_mode"])
    tree_green.check_exponents(mc["s_values"])
    tree_green.check_profile_depth(mc["depth"], _kernel_range(ker))
    return cfg


def _kernel_range(ker) -> int:
    """The distance the configured kernel reaches: 0 for the diagonal shape,
    whose range field it does not read, else ``kernel.range``."""
    return 0 if ker["shape"] == "diagonal" else ker["range"]


def _potential_spec(cfg) -> anderson.PotentialSpec:
    pot = cfg["potential"]
    return anderson.PotentialSpec(
        kind=pot["kind"],
        support_bound=pot["support_bound"],
        allow_atomic=pot["allow_atomic"],
    )


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
# stage inputs, each built on first use
# ----------------------------------------------------------------------


@dataclass
class _Run:
    """Inputs shared by every grid point of one run."""

    cfg: dict
    strict: bool

    @functools.cached_property
    def profiles(self) -> dict:
        """One distance-ratio profile per eta0 (potential-independent)."""
        cfg, mc = self.cfg, self.cfg["mc"]
        profiles = {}
        for eta0 in cfg["eta0_values"]:
            # one key for every eta0: the profiles share their tree potentials
            profiles[eta0] = tree_green.distance_ratio_profile(
                cfg["q"], _potential_spec(cfg), cfg["epsilon"], eta0, _kernel_range(cfg["kernel"]),
                _profile_lambda_grid(cfg), mc["samples"], derive_key(mc["seed"], "profile"),
                depth=mc["depth"], leaf_mode=mc["leaf_mode"],
            )
            if self.strict:
                _check_cavity_bounds(profiles[eta0].violations, f"profile at eta0={eta0}")
        return profiles

    @functools.cached_property
    def moments(self) -> tree_green.GreenMomentTable:
        cfg, mc = self.cfg, self.cfg["mc"]
        table = tree_green.green_condition_moments(
            cfg["q"], _potential_spec(cfg), cfg["epsilon"],
            mc["lambda_grid"], mc["eta_grid"], mc["s_values"],
            mc["samples"], derive_key(mc["seed"], "moments"),
            depth=mc["depth"], leaf_mode=mc["leaf_mode"],
        )
        if self.strict:
            _check_cavity_bounds(table.total_violations(), "moment sweep")
        return table

    @functools.cached_property
    def esd_reference(self) -> esd.CdfTable:
        """The reference CDF of the esd stage (the ids one is a Monte-Carlo sweep)."""
        cfg, mc = self.cfg, self.cfg["mc"]
        if cfg["esd"]["reference"] == "kesten-mckay":
            return esd.kesten_mckay_cdf(cfg["q"])
        table = esd.ids_cdf(
            cfg["q"], _potential_spec(cfg), cfg["epsilon"], cfg["eta0_values"][0],
            mc["samples"], derive_key(mc["seed"], "ids"),
            depth=mc["depth"], leaf_mode=mc["leaf_mode"],
        )
        if self.strict:
            _check_cavity_bounds(table.violations, "ids reference")
        return table


class _Point:
    """One (n, graph seed, pot seed) grid point of a run."""

    def __init__(self, run: _Run, n: int, gs: int, ps: int):
        self.run, self.cfg = run, run.cfg
        self.n, self.gs, self.ps = n, gs, ps

    @functools.cached_property
    def graph(self) -> graphs.RegularGraph:
        return graphs.generate_random_regular(self.n, self.cfg["q"], self.gs)

    @functools.cached_property
    def potential(self) -> anderson.PotentialAssignment:
        return anderson.sample_potential(
            self.n, _potential_spec(self.cfg), self.cfg["epsilon"], self.ps
        )

    @functools.cached_property
    def spectrum(self) -> anderson.SpectralData:
        """Eigenpairs of H; --strict-invariants adds the spectrum bound and the trace identity."""
        pot = self.potential
        sd = anderson.eigendecompose(anderson.assemble(self.graph, pot))
        if self.run.strict:
            anderson.check_spectrum_bound(sd, self.cfg["q"], pot.epsilon, pot.spec.support_bound)
            trace = float(np.sum(sd.eigenvalues))
            expected = pot.epsilon * float(np.sum(pot.omega))
            scale = max(abs(expected), self.n * 1e-3)
            if abs(trace - expected) > 1e-8 * scale:
                raise InvariantError("trace identity violated: sum(lambda) != eps*sum(omega)")
        return sd

    @functools.cached_property
    def observable(self) -> qe.Observable:
        obs = self.cfg["observable"]
        return qe.make_observable(
            obs["kind"], self.n, seed=obs["seed"], constant=obs["constant"],
            alpha=obs["alpha"], vertex=obs["vertex"], path=obs["path"],
        )

    @functools.cached_property
    def kernel(self) -> qe.Kernel:
        ker = self.cfg["kernel"]
        if ker["shape"] == "edges":
            return qe.edge_kernel(self.graph, ker["value"])
        if ker["shape"] == "ring":
            return qe.ring_kernel(self.graph, ker["range"], ker["value"])
        return qe.diagonal_kernel(self.observable)


# ----------------------------------------------------------------------
# stages: per-point values and the files written from them
# ----------------------------------------------------------------------


def _write_graphs(run, out_dir, results):
    gdir = os.path.join(out_dir, "graphs")
    os.makedirs(gdir, exist_ok=True)
    for n, gs, _, graph in results:
        graphs.save_graph_json(graph, os.path.join(gdir, f"graph_n{n}_s{gs}.json"))


def _conditions(point):
    """[beta, second_modulus, connected, small-radius fraction per configured radius]."""
    exp = graphs.exp_check(point.graph)
    if point.run.strict and not exp.connected:
        raise InvariantError(
            f"graph n={point.n} seed={point.gs} is disconnected (expansion failure)"
        )
    inj = graphs.injectivity_radius(point.graph)
    radii = point.cfg["conditions"]["bst_radii"]
    return [exp.beta, exp.second_modulus, exp.connected] + [
        inj.small_radius_fraction(r) for r in radii
    ]


def _write_conditions(run, out_dir, results):
    header = ["n", "seed", "beta", "second_modulus", "connected"] + [
        f"bst_r{r}" for r in run.cfg["conditions"]["bst_radii"]
    ]
    rows = [[n, gs] + values for n, gs, _, values in results]
    write_csv(os.path.join(out_dir, "conditions_graphs.csv"), header, rows)


def _write_spectra(run, out_dir, results):
    sdir = os.path.join(out_dir, "spectra")
    os.makedirs(sdir, exist_ok=True)
    for n, gs, ps, rows in results:
        write_csv(os.path.join(sdir, f"spectrum_n{n}_g{gs}_p{ps}.csv"),
                  ["index", "eigenvalue"], rows)


# The QE stages return (eta0, QEReport) pairs: the configured eta0 text names
# the per-eigenvalue files (0.0 for the diagonal statistic).
def _qe_diag(point):
    cfg = point.cfg
    return [(0.0, qe.qe_statistic_diag(point.spectrum, point.observable, cfg["lambda0"], q=cfg["q"]))]


def _qe_kernel(point):
    cfg = point.cfg
    return [
        (eta0, qe.qe_statistic_kernel(
            point.spectrum, point.kernel, cfg["lambda0"],
            qe.kernel_average_simple(point.kernel, profile), q=cfg["q"],
        ))
        for eta0, profile in point.run.profiles.items()
    ]


def _write_qe(key, run, out_dir, results):
    """``{key}.csv``; with output.per_eigenvalue also one eigenrows/ file per report."""
    cfg = run.cfg
    rows = [
        [n, f"{gs}:{ps}", cfg["epsilon"], rep.lambda0, eta0, rep.r_max,
         rep.statistic, rep.window_count]
        for n, gs, ps, reports in results
        for eta0, rep in reports
    ]
    write_csv(os.path.join(out_dir, f"{key}.csv"),
              ["n", "seed", "epsilon", "lambda0", "eta0", "R", "statistic", "window_count"], rows)
    if not cfg["output"]["per_eigenvalue"]:
        return
    edir = os.path.join(out_dir, "eigenrows")
    os.makedirs(edir, exist_ok=True)
    for n, gs, ps, reports in results:
        for eta0, rep in reports:
            write_csv(os.path.join(edir, f"{key}_n{n}_g{gs}_p{ps}_eta{eta0}.csv"),
                      ["i", "lambda_i", "bracket", "average"], rep.per_eigenvalue_rows())


def _esd(point):
    return esd.esd_compare(point.spectrum, point.run.esd_reference)


def _write_esd(run, out_dir, results):
    cfg = run.cfg
    rows = [
        [n, f"{gs}:{ps}", cfg["epsilon"], cfg["esd"]["reference"], distance]
        for n, gs, ps, distance in results
    ]
    write_csv(os.path.join(out_dir, "esd.csv"),
              ["n", "seed", "epsilon", "reference", "distance"], rows)


def _write_lln(run, out_dir, results):
    ldir = os.path.join(out_dir, "lln")
    os.makedirs(ldir, exist_ok=True)
    for n, gs, ps, comparisons in results:
        rows = [(c.k, c.graph_moment, c.tree_moment, c.abs_diff) for c in comparisons]
        write_csv(os.path.join(ldir, f"lln_n{n}_g{gs}_p{ps}.csv"),
                  ["k", "graph_moment", "tree_moment", "abs_diff"], rows)


def _write_moments(run, out_dir, results):
    write_csv(os.path.join(out_dir, "green_moments.csv"),
              ["lambda", "eta", "s", "estimate", "stderr", "kind"], run.moments.csv_rows())


def _write_flags(run, out_dir, results):
    cond = run.cfg["conditions"]
    inf_abs, sup_sq = run.moments.bounds()
    pot_ok = _potential_spec(run.cfg).continuous
    write_csv(
        os.path.join(out_dir, "green_flags.csv"),
        ["threshold_c", "threshold_C", "inf_abs_mean", "sup_square_mean",
         "pass_lower", "pass_upper", "pot_continuous"],
        [[cond["c_lower"], cond["c_upper"], inf_abs, sup_sq,
          inf_abs >= cond["c_lower"], sup_sq <= cond["c_upper"], pot_ok]],
    )


def _write_density(run, out_dir, results):
    band = 2.0 * math.sqrt(run.cfg["q"])
    lam_grid = np.linspace(-band, band, 401)
    dens = esd.kesten_mckay_densities(lam_grid, run.cfg["q"])
    write_csv(os.path.join(out_dir, "density_km.csv"), ["lambda", "density"], zip(lam_grid, dens))


class Stage(NamedTuple):
    """``compute(point)`` gives the stage's value at one grid point (None for a
    stage that writes only run-level results); ``write(run, out_dir, results)``
    writes its files from [(n, graph seed, pot seed, value)] in grid order.
    ``reads`` names the ``_Run`` inputs that the stage uses: they are built
    before the grid, so their budget guards fire before any graph is built and
    worker processes receive them rather than rebuild them.  A stage with a
    ``compute`` builds them only when the grid has a point.
    """

    compute: Callable | None
    write: Callable
    reads: tuple = ()


STAGES = {
    "graphs": Stage(lambda point: point.graph, _write_graphs),
    "conditions": Stage(_conditions, _write_conditions),
    "spectrum": Stage(lambda point: anderson.spectrum_rows(point.spectrum), _write_spectra),
    "qe-diag": Stage(_qe_diag, functools.partial(_write_qe, "qe_diag")),
    "qe-kernel": Stage(_qe_kernel, functools.partial(_write_qe, "qe_kernel"), ("profiles",)),
    "esd": Stage(_esd, _write_esd, ("esd_reference",)),
    "lln": Stage(lambda point: esd.lln_moment_check(point.graph, point.potential,
                                                    point.cfg["lln"]["k_max"]), _write_lln),
    "green-moments": Stage(None, _write_moments, ("moments",)),
    "green-flags": Stage(None, _write_flags, ("moments",)),
    "density-km": Stage(None, _write_density),
}

# the stages of each subcommand; `run` adds "spectrum" when output.spectrum_dump is set
COMMANDS = {
    "generate-graph": ("graphs", "conditions"),
    "spectrum": ("spectrum",),
    "qe-diag": ("qe-diag",),
    "qe-kernel": ("qe-kernel",),
    "green-moments": ("green-moments",),
    "esd": ("esd", "density-km"),
    "check-conditions": ("graphs", "conditions", "green-moments", "green-flags"),
    "run": ("conditions", "qe-diag", "qe-kernel", "esd", "lln"),
}


def _evaluate_point(task):
    """Values of the named stages at one (n, graph seed, pot seed) grid point."""
    run, n, gs, ps, names = task
    point = _Point(run, n, gs, ps)
    return [STAGES[name].compute(point) for name in names]


def _run_grid(run: _Run, names, threads: int):
    """Per-point values of the named stages: {name: [(n, gs, ps, value)]}."""
    cfg = run.cfg
    tasks = [
        (run, n, gs, ps, names)
        for n in cfg["n_values"]
        for gs, ps in zip(cfg["graph_seeds"], cfg["pot_seeds"])
    ]
    if threads <= 1 or len(tasks) < 2:
        values = [_evaluate_point(t) for t in tasks]
    else:
        # imported here: it loads multiprocessing, which a one-thread run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            values = list(pool.map(_evaluate_point, tasks))
    return {
        name: [(n, gs, ps, vals[i]) for (_, n, gs, ps, _), vals in zip(tasks, values)]
        for i, name in enumerate(names)
    }


def _run_stages(cfg, names, out_dir, threads: int, strict: bool) -> None:
    run = _Run(cfg, strict)
    point_names = tuple(name for name in names if STAGES[name].compute is not None)
    for name in names:
        # n_values is never empty, so the grid has a point when the seed lists do
        if STAGES[name].compute is None or cfg["graph_seeds"]:
            for attr in STAGES[name].reads:
                getattr(run, attr)
    results = _run_grid(run, point_names, threads) if point_names else {}
    for name in names:
        STAGES[name].write(run, out_dir, results.get(name, []))


def _default_threads() -> int:
    """The CPUs this process may run on, or every CPU where the platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker processes for the grid (default: the CPUs this "
                            "process may run on)")
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
        names = COMMANDS[args.command]
        if args.command == "run" and cfg["output"]["spectrum_dump"]:
            names += ("spectrum",)
        _run_stages(cfg, names, args.out, args.threads, args.strict_invariants)
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
