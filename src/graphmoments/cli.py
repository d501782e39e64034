"""Command-line front end.

Subcommands: gen, moments, fit, degrees, bootstrap, sweep.  Every command
is deterministic given its manifest; results embed a timing-free manifest
object, and non-JSON outputs (edge lists, CSV, JSONL) get a sidecar
``<out>.manifest.json`` carrying the same manifest plus wall-clock data.

Exit codes: 0 success, 2 input error, 3 numerical/identifiability error,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import sys
import time
from datetime import datetime, timedelta, timezone

import numpy as np

from . import __version__
from .blockfit import FitConfig, fit_block_model
from .bootstrap import HubCountCache, bootstrap_variance
from .degrees import degree_moment_approx, joint_coupling_error, m_degrees, theta_profile
from .errors import BudgetExceededError, DomainError, InputError, NumericalError
from .graph import Graph, lambda_hat, load_edge_list, rho_hat, write_edge_list
from .graphstats import share_cpus, usable_cpus
from .hubs import DEFAULT_BUDGET
from .models import (
    BlockModel,
    Graphon,
    check_rho,
    load_model,
    model_from_json,
    sample_block_model,
    sample_graphon,
)
from .moments import SCHEMA_VERSION, MomentEntry, MomentTable, moment_table, wheel_moment_estimates
from .patterns import WheelSpec, parse_pattern_name, wheel_isomorphism_count
from .theory import tau


# ---------------------------------------------------------------------------
# manifests


def _manifest(command: str, args: argparse.Namespace, inputs, outputs, **extra) -> dict:
    """The run manifest: its id hashes exactly command, parameters, seed and version."""
    # threads is an execution detail: it cannot change results, so it must
    # not change the manifest identity
    skip = {"func", "out", "summary", "graph", "model", "config", "threads"}
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and not callable(v)
    }
    params.update(extra)
    ident = {"command": command, "parameters": params,
             "seed": getattr(args, "seed", None), "version": __version__}
    blob = json.dumps(ident, sort_keys=True)
    return {
        "manifest_id": hashlib.sha256(blob.encode()).hexdigest()[:16],
        **ident,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }


def _emit_json(payload: dict, manifest: dict, out: str | None) -> None:
    text = json.dumps({**payload, "manifest": manifest}, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _emit_sidecar(manifest: dict, out: str, t0: float) -> None:
    """Write ``<out>.manifest.json``: the manifest plus the wall clock since monotonic t0."""
    wall = time.monotonic() - t0
    started = datetime.now(timezone.utc) - timedelta(seconds=wall)
    timed = {**manifest, "started_at": started.isoformat(timespec="seconds"),
             "wall_clock_s": wall}
    with open(f"{out}.manifest.json", "w") as fh:
        json.dump(timed, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _budget(args) -> int | None:
    """The enumeration budget of a counting command: --budget, else DEFAULT_BUDGET."""
    return DEFAULT_BUDGET if args.budget is None else args.budget


def _load(loader, path: str, what: str):
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise InputError(f"{what} file not found: {path}") from exc


def _sample(model, rho, n: int, seed: int, latents: bool):
    """Sample either model type at density rho (a block model's own rho when None)."""
    if isinstance(model, Graphon):
        if rho is None:
            raise InputError("sampling a graphon needs --rho")
        return sample_graphon(model, rho, n, seed, keep_latents=latents)
    if rho is not None:
        model = model.with_rho(rho)
    return sample_block_model(model, n, seed, keep_latents=latents)


def cmd_gen(args) -> int:
    model = _load(load_model, args.model, "model")
    lat_path = f"{args.out}.latents"
    outputs = [args.out, lat_path] if args.latents else [args.out]
    manifest = _manifest("gen", args, [args.model], outputs)
    t0 = time.monotonic()
    sample = _sample(model, args.rho, args.n, args.seed, args.latents)
    write_edge_list(sample.graph, args.out)
    if args.latents:
        with open(lat_path, "w") as fh:
            for x in sample.xi:
                fh.write("%.17g\n" % x)
    _emit_sidecar(manifest, args.out, t0)
    g = sample.graph
    print(
        f"wrote {args.out}: n={g.n} edges={g.edge_count} "
        f"rho_hat={rho_hat(g):.6g} lambda_hat={lambda_hat(g):.6g}"
    )
    return 0


def _approx_table(g: Graph, specs, budget: int | None) -> MomentTable:
    for spec in specs:
        if not isinstance(spec, WheelSpec):
            raise DomainError(f"--approx=degree supports wheel keys only, got {spec.name()}")
    profile = m_degrees(g, max(max(s.ks) for s in specs), budget=budget)
    entries = tuple(
        MomentEntry(
            name=spec.name(),
            p=spec.p,
            q=spec.q,
            n_isoclasses=wheel_isomorphism_count(spec),
            tau=degree_moment_approx(profile, spec),
        )
        for spec in specs
    )
    return MomentTable(
        n=g.n, edge_count=g.edge_count, rho=rho_hat(g), entries=entries, kind="degree-approx"
    )


def cmd_moments(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    if rho_hat(g) == 0:
        raise NumericalError("graph has no edges; moments are undefined")
    items = [parse_pattern_name(name) for name in args.pattern]
    if not items:
        raise InputError("give at least one --pattern")
    manifest = _manifest("moments", args, [args.graph], [args.out] if args.out else [])
    if args.approx == "degree":
        table = _approx_table(g, items, _budget(args))
    else:
        mode = "both" if args.estimator == "pcheck" else "noninduced"
        table = moment_table(g, items, mode=mode, budget=_budget(args))
    _emit_json(table.to_json(), manifest, args.out)
    return 0


def cmd_fit(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    manifest = _manifest("fit", args, [args.graph], [args.out] if args.out else [])
    result = fit_block_model(g, FitConfig(K=args.K, budget=_budget(args)))
    payload = result.to_json()
    if not args.report_stages:
        payload["diagnostics"].pop("stages", None)
        payload["diagnostics"].pop("solve", None)
    _emit_json(payload, manifest, args.out)
    return 0


def _quantile_dict(col: np.ndarray) -> dict:
    qs = np.quantile(col.astype(float), [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0])
    names = ["min", "p05", "p25", "p50", "p75", "p95", "max"]
    return {k: float(v) for k, v in zip(names, qs)}


def cmd_degrees(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    if g.n < 1:  # no vertex has a degree to summarise
        raise InputError(f"{args.graph} has no vertices")
    outputs = [p for p in (args.out, args.summary) if p]
    manifest = _manifest("degrees", args, [args.graph], outputs)
    t0 = time.monotonic()
    if args.budget is None:
        profile = m_degrees(g, args.m)
    else:
        profile = m_degrees(g, args.m, budget=args.budget)
    if args.out:
        header = ",".join(["vertex"] + [f"D{j}" for j in range(1, args.m + 1)])
        ids = g.labels or range(g.n)  # a graph read without a header keeps its own ids
        columns = [map(str, ids)] + [map(str, col) for col in profile.counts.T.tolist()]
        with open(args.out, "w", newline="") as fh:  # csv's dialect: "\r\n" ends each row
            fh.write("\r\n".join([header, *map(",".join, zip(*columns))]) + "\r\n")
        _emit_sidecar(manifest, args.out, t0)
        print(f"wrote {args.out}")
    columns = [{"order": j + 1, "quantiles": _quantile_dict(col)}
               for j, col in enumerate(profile.counts.T)]
    if profile.mean_degree > 0:  # an edgeless graph has no normalized profile
        for column, col in zip(columns, profile.normalized().T):
            column["normalized_quantiles"] = _quantile_dict(col)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": g.n,
        "m": args.m,
        "mean_degree": profile.mean_degree,
        "columns": columns,
    }
    _emit_json(summary, manifest, args.summary)
    return 0


def cmd_bootstrap(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    key = WheelSpec.coerce(args.key)
    manifest = _manifest("bootstrap", args, [args.graph], [args.out] if args.out else [])
    cache = HubCountCache.build(g, [key], _budget(args))
    result = bootstrap_variance(g, cache, key, m=args.m, B=args.B, seed=args.seed)
    _emit_json(result.to_json(), manifest, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _lambda_for(rule, n: int, fallback_rho: float | None) -> tuple[float, float]:
    """Return (lambda, rho) for a cell; InputError on a malformed rule."""
    if rule is None:
        if fallback_rho is None:
            raise InputError("sweep config needs a lambda rule or models with rho")
        return fallback_rho * (n - 1), fallback_rho
    kind = rule.get("kind") if isinstance(rule, dict) else None
    try:
        if kind == "fixed":
            lam = float(rule["value"])
        elif kind == "power":
            lam = float(rule["c"]) * n ** float(rule["exponent"])
        else:
            raise InputError(f"unknown lambda rule {rule!r}; its kind is 'fixed' or 'power'")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"lambda rule {rule!r} needs numbers: 'value' for kind 'fixed', "
                         "'c' and 'exponent' for kind 'power'") from exc
    if n < 2:
        raise InputError(f"a lambda rule needs n >= 2, got n = {n}")
    return lam, lam / (n - 1)


# each sweep metric and the parameters it takes, all positive integers
_METRICS = {"rho_hat": (), "lambda_hat": (), "edges": (), "tau_check": ("k", "l"),
            "tau_error": ("k", "l"), "approx_gap": ("k", "l"), "coupling": ("m",), "fit": ("K",)}
_WHEEL_METRICS = ("tau_check", "tau_error", "approx_gap")


def _metric_params(spec: str) -> tuple[str, dict]:
    """(name, parameters) of a sweep metric such as "tau_check:k=2,l=1".

    InputError unless the name is known and the metric sets exactly that
    name's parameters, each to a positive integer.
    """
    name, _, body = spec.partition(":")
    if name not in _METRICS:
        raise InputError(f"unknown metric {name!r}")
    want = _METRICS[name]
    try:
        params = {k: int(v) for k, v in (part.split("=", 1) for part in body.split(",") if body)}
        if sorted(params) != sorted(want) or min(params.values(), default=1) < 1:
            raise ValueError
    except ValueError:
        form = ":" + ",".join(f"{k}=.." for k in want) + ", with positive integers" if want else ""
        raise InputError(f"sweep metric {spec!r} must read {name}{form}") from None
    return name, params


def _sweep_cell(task: dict) -> dict:
    """Evaluate one (model, n, rep) cell; returns the JSONL record."""
    fields = ("manifest_id", "cell_id", "rep", "seed", "model", "n", "lambda", "rho")
    record = {k: task[k] for k in fields}
    record.update(schema_version=SCHEMA_VERSION, metrics={}, error=None)
    try:
        model = model_from_json(task["model_obj"])
        need_latents = any(m.startswith("coupling") for m in task["metrics"])
        sample = _sample(model, task["rho"], task["n"], task["seed"], need_latents)
        g = sample.graph
        budget = task["budget"]
        metrics = record["metrics"]
        parsed = [(spec, *_metric_params(spec)) for spec in task["metrics"]]
        # every wheel metric of the cell in one count, made at the first of them
        wheel_keys = dict.fromkeys(WheelSpec.simple(params["k"], params["l"])
                                   for _, name, params in parsed if name in _WHEEL_METRICS)
        wheel = None
        for spec, name, params in parsed:
            if name == "rho_hat":
                metrics[spec] = rho_hat(g)
            elif name == "lambda_hat":
                metrics[spec] = lambda_hat(g)
            elif name == "edges":
                metrics[spec] = g.edge_count
            elif name in _WHEEL_METRICS:
                if wheel is None:
                    wheel = wheel_moment_estimates(g, wheel_keys, budget=budget)
                key = WheelSpec.simple(params["k"], params["l"])
                val = wheel[key]
                if name == "approx_gap":
                    profile = m_degrees(g, params["k"], budget=budget)
                    val = abs(degree_moment_approx(profile, key) - val)
                metrics[spec] = val - tau(model, key) if name == "tau_error" else val
            elif name == "coupling":
                depth = params["m"]
                profile = m_degrees(g, depth, budget=budget)
                theta = theta_profile(model, sample.xi, depth)
                metrics[spec] = joint_coupling_error(profile, theta)
            elif name == "fit":
                res = fit_block_model(g, FitConfig(K=params["K"], budget=budget))
                metrics[f"{spec}.residual"] = res.residual
                metrics[f"{spec}.converged"] = res.converged
                if isinstance(model, BlockModel) and model.K == params["K"]:
                    order = model.canonical_order()
                    pi_err = np.max(np.abs(res.pi - model.pi[order]))
                    metrics[f"{spec}.pi_error"] = float(pi_err)
                    s_err = np.max(np.abs(res.S - model.S[np.ix_(order, order)]))
                    metrics[f"{spec}.S_error"] = float(s_err)
    except Exception as exc:  # per-line failure; sweep continues
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(obj: dict, known: tuple, what: str) -> None:
    """InputError naming the first key of obj that is not known, and its value."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(f"{what} has an unknown key {unknown[0]!r}: {obj[unknown[0]]!r}; "
                         f"its keys are {', '.join(known)}")


def cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc

    if not isinstance(config, dict):
        raise InputError("sweep config must be a JSON object")
    _check_keys(config, ("models", "n", "replicates", "metrics", "lambda", "seed", "budget"),
                "sweep config")
    for field in ("models", "n", "replicates", "metrics"):
        if field not in config:
            raise InputError(f"sweep config missing {field!r}")
    if not isinstance(config["models"], list) or not all(
        isinstance(entry, dict) for entry in config["models"]
    ):
        raise InputError("sweep config 'models' must be a list of objects")
    if not isinstance(config["n"], list) or not all(_is_int(n) and n >= 1 for n in config["n"]):
        raise InputError("sweep config 'n' must be a list of integers >= 1")
    if not _is_int(config["replicates"]) or config["replicates"] < 1:
        raise InputError("sweep config 'replicates' must be an integer >= 1")
    if not isinstance(config["metrics"], list) or not all(
        isinstance(spec, str) for spec in config["metrics"]
    ):
        raise InputError("sweep config 'metrics' must be a list of strings")
    for spec in config["metrics"]:
        _metric_params(spec)
    for seed in (config.get("seed"), args.seed):
        if seed is not None and not (_is_int(seed) and seed >= 0):
            raise InputError(f"the sweep seed must be a non-negative integer, got {seed!r}")
    if args.seed is None:  # --seed wins, as --budget does; the manifest records the seed used
        args.seed = config.get("seed", 0)
    budget = args.budget if args.budget is not None else config.get("budget", DEFAULT_BUDGET)
    if budget is not None and not (_is_int(budget) and budget >= 0):
        raise InputError(f"sweep config 'budget' must be an integer >= 0 or null, got {budget!r}")
    rule = config.get("lambda")

    models = []
    for entry in config["models"]:
        name = entry.get("name")
        if not name:
            raise InputError("each sweep model needs a name")
        _check_keys(entry, ("name", "model", "path"), f"sweep model {name!r}")
        if "model" in entry and "path" in entry:
            raise InputError(f"sweep model {name!r} has both 'model' and 'path'; give one")
        if "model" in entry:
            model = model_from_json(entry["model"])  # a bad model fails here, not in every cell
            obj = entry["model"]
        elif "path" in entry:
            model = _load(load_model, entry["path"], "model")
            obj = model.to_json()
        else:
            raise InputError(f"model {name!r} needs 'model' or 'path'")
        models.append((name, obj, model))

    manifest = _manifest("sweep", args, [args.config], [args.out], config=config)
    shared = {
        "manifest_id": manifest["manifest_id"],
        "metrics": config["metrics"],
        "budget": budget,
    }

    tasks = []
    for mi, (name, obj, model) in enumerate(models):
        fallback_rho = obj.get("rho")
        for ni, n in enumerate(config["n"]):
            lam, rho = _lambda_for(rule, n, fallback_rho)
            # a density the model cannot take fails here, by the sampler's own checks
            if isinstance(model, Graphon):
                check_rho(rho)
            else:
                model.with_rho(rho)
            cell_id = f"{name}/n={n}/lambda={lam:g}"
            for rep in range(config["replicates"]):
                seed = int(
                    np.random.SeedSequence([args.seed, mi, ni, rep]).generate_state(1)[0]
                )
                tasks.append({**shared, "cell_id": cell_id, "model": name, "model_obj": obj,
                              "n": n, "lambda": lam, "rho": rho, "rep": rep, "seed": seed})

    t0 = time.monotonic()
    threads = max(1, args.threads)
    if threads > 1 and len(tasks) > 1:
        # each worker's A^2 passes take 1/threads of the CPUs, not all of them
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=threads, initializer=share_cpus, initargs=(threads,)
        ) as pool:
            records = list(pool.map(_sweep_cell, tasks, chunksize=1))
    else:
        records = [_sweep_cell(t) for t in tasks]
    records.sort(key=lambda r: (r["cell_id"], r["rep"]))
    with open(args.out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _emit_sidecar(manifest, args.out, t0)
    failures = sum(1 for r in records if r["error"])
    print(f"wrote {args.out}: {len(records)} lines, {failures} failed")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # gen and bootstrap draw random numbers from --seed; sweep has its own,
    # which falls back to its config's
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    # every command but gen, which enumerates nothing
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument(
        "--budget",
        type=int,
        default=None,
        help="enumeration budget for counting kernels",
    )

    parser = argparse.ArgumentParser(
        prog="graphmoments",
        description="Moment-based analysis of exchangeable random graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seeded], help="sample a graph from a model file")
    p.add_argument("model", help="model JSON (block model or gridded graphon)")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--rho", type=float, default=None, help="edge density (required for graphons)")
    p.add_argument("--out", required=True, help="output edge-list path")
    p.add_argument("--latents", action="store_true", help="write latent uniforms sidecar")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("moments", parents=[counting], help="pattern/wheel moment table")
    p.add_argument("graph", help="edge-list file")
    p.add_argument(
        "--pattern",
        action="append",
        default=[],
        help="pattern name (repeatable): wheel:k=2,l=1 | wheel:k=1+2,l=2+1 | edges:0-1,0-2",
    )
    p.add_argument(
        "--estimator",
        choices=("pcheck", "qcheck"),
        default="pcheck",
        help="pcheck computes induced+noninduced counts; qcheck noninduced only",
    )
    p.add_argument(
        "--approx",
        choices=("degree",),
        default=None,
        help="degree: falling-factorial approximation instead of exact counts",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("fit", parents=[counting], help="fit a K-block model")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--K", type=int, required=True, help="block count")
    p.add_argument("--report-stages", action="store_true",
                   help="keep stage 1's and the iterate solve's diagnostics in output")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("degrees", parents=[counting], help="m-degree profile")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--m", type=int, required=True, help="maximum path length")
    p.add_argument("--out", default=None, help="per-vertex CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("bootstrap", parents=[counting, seeded], help="subsampling variance estimate")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--key", required=True, help="wheel key: 'k,l' or wheel:k=..,l=..")
    p.add_argument("--m", type=int, default=None, help="subsample size (default ceil(n^0.7))")
    p.add_argument("--B", type=int, default=500, help="replicate count")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("sweep", parents=[counting], help="simulation sweep to JSONL")
    p.add_argument("config", help="sweep config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: the config's \"seed\", else 0)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument(
        "--threads",
        type=int,
        default=usable_cpus(),
        help="worker processes (default: the CPUs this process may use)",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (getattr(args, "budget", None) or 0) < 0:  # 0 allows the closed forms only
            raise InputError(f"--budget must be an integer >= 0, got {args.budget}")
        return args.func(args)
    except (BudgetExceededError, NumericalError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return 4
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
