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
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .blockfit import FitConfig, fit_block_model
from .bootstrap import HubCountCache, bootstrap_variance
from .degrees import degree_moment_approx, joint_coupling_error, m_degrees, theta_profile
from .errors import BudgetExceededError, DomainError, InputError, NumericalError
from .graph import Graph, lambda_hat, load_edge_list, rho_hat, write_edge_list
from .graphstats import share_cpus
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


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    inputs: list
    outputs: list
    version: str
    started_at: str
    wall_clock_s: float | None = None

    @property
    def manifest_id(self) -> str:
        blob = json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "seed": self.seed,
                "version": self.version,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self, timing: bool = True) -> dict:
        out = {
            "manifest_id": self.manifest_id,
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "version": self.version,
        }
        if timing:
            out["started_at"] = self.started_at
            if self.wall_clock_s is not None:
                out["wall_clock_s"] = self.wall_clock_s
        return out


def _manifest(command: str, args: argparse.Namespace, inputs, outputs) -> RunManifest:
    # threads is an execution detail: it cannot change results, so it must
    # not change the manifest identity
    skip = {"func", "out", "summary", "graph", "model", "config", "threads"}
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and not callable(v)
    }
    return RunManifest(
        command=command,
        parameters=params,
        seed=getattr(args, "seed", None),
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        version=__version__,
        started_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _emit_json(payload: dict, manifest: RunManifest, out: str | None) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest.to_json(timing=False)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _emit_sidecar(manifest: RunManifest, out: str) -> None:
    with open(f"{out}.manifest.json", "w") as fh:
        json.dump(manifest.to_json(timing=True), fh, indent=2, sort_keys=True)
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
    manifest = _manifest("gen", args, [args.model], [args.out])
    t0 = time.monotonic()
    sample = _sample(model, args.rho, args.n, args.seed, args.latents)
    write_edge_list(sample.graph, args.out)
    outputs = [args.out]
    if args.latents:
        lat_path = f"{args.out}.latents"
        with open(lat_path, "w") as fh:
            for x in sample.xi:
                fh.write("%.17g\n" % x)
        outputs.append(lat_path)
    manifest.outputs = outputs
    manifest.wall_clock_s = time.monotonic() - t0
    _emit_sidecar(manifest, args.out)
    g = sample.graph
    print(
        f"wrote {args.out}: n={g.n} edges={g.edge_count} "
        f"rho_hat={rho_hat(g):.6g} lambda_hat={lambda_hat(g):.6g}"
    )
    return 0


def _approx_table(g: Graph, specs) -> MomentTable:
    for spec in specs:
        if not isinstance(spec, WheelSpec):
            raise DomainError(f"--approx=degree supports wheel keys only, got {spec.name()}")
    profile = m_degrees(g, max(max(s.ks) for s in specs))
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
    t0 = time.monotonic()
    if args.approx == "degree":
        table = _approx_table(g, items)
    else:
        mode = "both" if args.estimator == "pcheck" else "noninduced"
        table = moment_table(g, items, mode=mode, budget=_budget(args))
    manifest.wall_clock_s = time.monotonic() - t0
    _emit_json(table.to_json(), manifest, args.out)
    return 0


def _bootstrap_weights(g: Graph, cfg: FitConfig, seed: int) -> dict:
    """1/sigma^2 of each key from seed + its index; a key whose count exceeds
    the budget is left out, as the fit approximates it with weight 1."""
    weights = {}
    for i, key in enumerate(cfg.keys()):
        try:
            cache = HubCountCache.build(g, [key], cfg.budget)
        except BudgetExceededError:
            continue
        res = bootstrap_variance(g, cache, key, seed=seed + i)
        weights[key] = 1.0 / max(res.sigma2_hat, 1e-300)
    return weights


def cmd_fit(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    manifest = _manifest("fit", args, [args.graph], [args.out] if args.out else [])
    cfg = FitConfig(K=args.K, multistart=args.multistart, seed=args.seed, budget=_budget(args),
                    on_stage_error=args.on_stage_error)
    t0 = time.monotonic()
    if args.weights == "bootstrap":
        weights = _bootstrap_weights(g, cfg, args.seed)
        cfg = replace(cfg, weights=weights)
    result = fit_block_model(g, cfg)
    manifest.wall_clock_s = time.monotonic() - t0
    if result.diagnostics.get("approximated_keys"):
        names = ", ".join(result.diagnostics["approximated_keys"])
        print(
            f"warning: exact counting exceeded the budget; {names} fell back to the "
            f"{result.diagnostics['approximation']} approximation",
            file=sys.stderr,
        )
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
    outputs = [p for p in (args.out, args.summary) if p]
    manifest = _manifest("degrees", args, [args.graph], outputs)
    t0 = time.monotonic()
    if args.budget is None:
        profile = m_degrees(g, args.m)
    else:
        profile = m_degrees(g, args.m, budget=args.budget)
    manifest.wall_clock_s = time.monotonic() - t0
    if args.out:
        header = ",".join(["vertex"] + [f"D{j}" for j in range(1, args.m + 1)])
        columns = [map(str, range(g.n))] + [map(str, col) for col in profile.counts.T.tolist()]
        with open(args.out, "w", newline="") as fh:  # csv's dialect: "\r\n" ends each row
            fh.write("\r\n".join([header, *map(",".join, zip(*columns))]) + "\r\n")
        _emit_sidecar(manifest, args.out)
        print(f"wrote {args.out}")
    normalized = profile.normalized() if profile.mean_degree > 0 else None
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": g.n,
        "m": args.m,
        "mean_degree": profile.mean_degree,
        "columns": [
            {
                "order": j + 1,
                "quantiles": _quantile_dict(profile.counts[:, j]),
                "normalized_quantiles": (
                    _quantile_dict(normalized[:, j]) if normalized is not None else None
                ),
            }
            for j in range(args.m)
        ],
    }
    _emit_json(summary, manifest, args.summary)
    return 0


def cmd_bootstrap(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    key = WheelSpec.coerce(args.key)
    manifest = _manifest("bootstrap", args, [args.graph], [args.out] if args.out else [])
    t0 = time.monotonic()
    cache = HubCountCache.build(g, [key], _budget(args))
    result = bootstrap_variance(g, cache, key, m=args.m, B=args.B, seed=args.seed,
                                normalization=args.normalization)
    manifest.wall_clock_s = time.monotonic() - t0
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
        estimator = task["estimator"]
        metrics = record["metrics"]
        for spec in task["metrics"]:
            name, params = _metric_params(spec)
            if name == "rho_hat":
                metrics[spec] = rho_hat(g)
            elif name == "lambda_hat":
                metrics[spec] = lambda_hat(g)
            elif name == "edges":
                metrics[spec] = g.edge_count
            elif name in ("tau_check", "tau_error", "approx_gap"):
                key = WheelSpec.simple(params["k"], params["l"])
                val = wheel_moment_estimates(g, [key], estimator=estimator, budget=budget)[key]
                if name == "approx_gap":
                    val = abs(degree_moment_approx(m_degrees(g, params["k"]), key) - val)
                metrics[spec] = val - tau(model, key) if name == "tau_error" else val
            elif name == "coupling":
                depth = params["m"]
                profile = m_degrees(g, depth)
                theta = theta_profile(model, sample.xi, depth)
                metrics[spec] = joint_coupling_error(profile, theta)
            elif name == "fit":
                cfg = FitConfig(K=params["K"], budget=budget, **task["fit_options"])
                res = fit_block_model(g, cfg)
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


# the FitConfig fields a sweep's "fit" section may set; the sweep sets the others itself
_SWEEP_FIT_KEYS = tuple(
    f.name for f in fields(FitConfig) if f.name not in ("K", "budget")
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    base_seed = config.get("seed", args.seed)
    if not _is_int(base_seed) or base_seed < 0:
        raise InputError(f"the sweep seed must be a non-negative integer, got {base_seed!r}")
    estimator = config.get("estimator", "qcheck")
    if estimator not in ("qcheck", "pcheck"):
        raise InputError(f"bad estimator {estimator!r}")
    budget = args.budget if args.budget is not None else config.get("budget", DEFAULT_BUDGET)
    if budget is not None and not _is_int(budget):
        raise InputError(f"sweep config 'budget' must be an integer or null, got {budget!r}")
    fit_options = config.get("fit", {})
    if not isinstance(fit_options, dict):
        raise InputError("sweep config 'fit' must be an object")
    unknown = sorted(set(fit_options) - set(_SWEEP_FIT_KEYS))
    if unknown:
        raise InputError(
            f"sweep config 'fit' has unknown keys {unknown}; "
            f"accepted keys: {', '.join(_SWEEP_FIT_KEYS)}"
        )
    # a bad value in the section fails here, not in every cell
    FitConfig(K=1, budget=budget, **fit_options)
    rule = config.get("lambda")

    models = []
    for entry in config["models"]:
        name = entry.get("name")
        if not name:
            raise InputError("each sweep model needs a name")
        if "model" in entry:
            model = model_from_json(entry["model"])  # a bad model fails here, not in every cell
            obj = entry["model"]
        elif "path" in entry:
            model = _load(load_model, entry["path"], "model")
            obj = model.to_json()
        else:
            raise InputError(f"model {name!r} needs 'model' or 'path'")
        models.append((name, obj, model))

    manifest = _manifest(
        "sweep",
        args,
        [args.config],
        [args.out],
    )
    manifest.parameters["config"] = config
    shared = {
        "manifest_id": manifest.manifest_id,
        "metrics": config["metrics"],
        "estimator": estimator,
        "budget": budget,
        "fit_options": fit_options,
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
                    np.random.SeedSequence([base_seed, mi, ni, rep]).generate_state(1)[0]
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
    manifest.wall_clock_s = time.monotonic() - t0
    _emit_sidecar(manifest, args.out)
    failures = sum(1 for r in records if r["error"])
    print(f"wrote {args.out}: {len(records)} lines, {failures} failed")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    # every command but gen, which enumerates nothing
    counting = argparse.ArgumentParser(add_help=False, parents=[common])
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

    p = sub.add_parser("gen", parents=[common], help="sample a graph from a model file")
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
    p.add_argument(
        "--weights",
        choices=("bootstrap",),
        default=None,
        help="bootstrap: weighted least squares with 1/sigma^2 from subsampling",
    )
    p.add_argument("--report-stages", action="store_true",
                   help="keep stage 1's and the iterate solve's diagnostics in output")
    p.add_argument("--multistart", type=int, default=FitConfig.multistart)
    p.add_argument(
        "--on-stage-error",
        choices=("raise", "fallback"),
        default=FitConfig.on_stage_error,
        help="fallback: refine from a neutral start when stage recovery fails",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("degrees", parents=[counting], help="m-degree profile")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--m", type=int, required=True, help="maximum path length")
    p.add_argument("--out", default=None, help="per-vertex CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("bootstrap", parents=[counting], help="subsampling variance estimate")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--key", required=True, help="wheel key: 'k,l' or wheel:k=..,l=..")
    p.add_argument("--m", type=int, default=None, help="subsample size (default ceil(n^0.7))")
    p.add_argument("--B", type=int, default=500, help="replicate count")
    p.add_argument(
        "--normalization",
        choices=("rho_star", "literal"),
        default="rho_star",
        help="rho_star: D-bar*/(n-1); literal: the as-written D-bar*/m",
    )
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("sweep", parents=[counting], help="simulation sweep to JSONL")
    p.add_argument("config", help="sweep config JSON")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker count (default: CPU count)",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, NumericalError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return 4
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
