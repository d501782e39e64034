import concurrent.futures
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import graphmoments
from graphmoments import (
    BlockModel,
    FitConfig,
    Graphon,
    HubCountCache,
    WheelSpec,
    blockmodel_to_graphon,
    bootstrap_variance,
    erdos_renyi_model,
    fit_block_model,
    load_edge_list,
    m_degrees,
    sample_block_model,
    save_model,
    wheel_moment_estimates,
    write_edge_list,
)
from graphmoments import cli, graphstats
from graphmoments.cli import main

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02
)


@pytest.fixture()
def model_path(tmp_path):
    p = tmp_path / "ref.json"
    save_model(REF, p)
    return str(p)


@pytest.fixture()
def graph_path(tmp_path, model_path):
    out = tmp_path / "g.edges"
    rc = main(["gen", model_path, "--n", "300", "--seed", "11", "--out", str(out)])
    assert rc == 0
    return str(out)


def test_gen_is_deterministic(tmp_path, model_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    main(["gen", model_path, "--n", "200", "--seed", "5", "--out", str(a)])
    main(["gen", model_path, "--n", "200", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.edges"
    main(["gen", model_path, "--n", "200", "--seed", "6", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("model, args, digest", [
    (REF, ["--n", "2000", "--seed", "3"],
     "c017336c364fe86be3e0f48ca8aa96a6de573c8ac855e010d53be10ef364a1a0"),
    # at rho = 0.4 the w = 3 cells saturate: every pair in them is an edge
    (blockmodel_to_graphon(BlockModel(pi=np.array([0.5, 0.5]),
                                      S=np.array([[3.0, 0.2], [0.2, 0.6]]), rho=0.01), 16),
     ["--n", "300", "--rho", "0.4", "--seed", "5"],
     "85b75ff45cd40206e85fb1cca036ce40d066c67475e6bf68d44d94b4cb10b416"),
], ids=["two-block", "saturated-graphon"])
def test_gen_edge_lists_keep_their_digests(tmp_path, model, args, digest):
    # pinned sampler output: any change to the draw order or the subset fails here
    save_model(model, tmp_path / "model.json")
    out = tmp_path / "g.edges"
    assert main(["gen", str(tmp_path / "model.json"), *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_sidecar_manifest_and_latents(tmp_path, model_path):
    out = tmp_path / "g.edges"
    rc = main(
        ["gen", model_path, "--n", "150", "--seed", "2", "--out", str(out), "--latents"]
    )
    assert rc == 0
    side = json.loads((tmp_path / "g.edges.manifest.json").read_text())
    assert side["command"] == "gen"
    assert side["seed"] == 2
    assert len(side["manifest_id"]) == 16
    xs = [float(line) for line in (tmp_path / "g.edges.latents").read_text().splitlines()]
    assert len(xs) == 150
    assert all(0.0 <= x <= 1.0 for x in xs)
    g = load_edge_list(out)
    assert g.n == 150


def test_moments_stdout_json_and_stable_manifest(graph_path, capsys):
    argv = ["moments", graph_path, "--pattern", "wheel:k=2,l=1", "--pattern", "wheel:k=1,l=2", "--seed", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert "manifest" in obj and "timing" not in obj["manifest"]
    names = {e["pattern"] for e in obj["entries"]}
    assert names == {"wheel:k=2,l=1", "wheel:k=1,l=2"}
    for e in obj["entries"]:
        assert e["p_check"] is not None and e["q_check"] is not None


def test_moments_out_file_gets_sidecar(tmp_path, graph_path):
    out = tmp_path / "m.json"
    assert main(["moments", graph_path, "--pattern", "wheel:k=2,l=1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["entries"][0]["pattern"] == "wheel:k=2,l=1"
    # JSON outputs embed the manifest; no sidecar needed
    assert not (tmp_path / "m.json.manifest.json").exists()


def test_fit_runs_and_reports(graph_path, capsys):
    rc = main(
        ["fit", graph_path, "--K", "2", "--seed", "1", "--on-stage-error", "fallback"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["pi"]) == 2
    assert len(obj["S"]) == 2 and len(obj["S"][0]) == 2
    assert obj["manifest"]["command"] == "fit"
    # canonical order: ascending stage-1 atoms
    v1 = np.array(obj["S"]) @ np.array(obj["pi"])
    assert v1[0] <= v1[1] + 1e-9


def test_default_fit_exits_0_on_a_graph_whose_stages_once_disagreed(tmp_path, capsys):
    # criterion 11's graph r = 0 at n = 4000, lambda = 20: its stage 2
    # weights once missed stage 1's by more than 0.01, and fit exited 3
    seed = int(np.random.SeedSequence([11, 4000, 0]).generate_state(1)[0])
    g = sample_block_model(REF.with_rho(20 / 3999), 4000, seed=seed).graph
    path = tmp_path / "r0.edges"
    write_edge_list(g, path)
    assert main(["fit", str(path), "--K", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "stage_error" not in obj["diagnostics"]
    # stage 1's and the solve's diagnostics only on request
    assert not {"stages", "solve"} & set(obj["diagnostics"])
    assert main(["fit", str(path), "--K", "2", "--report-stages"]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert len(diag["stages"]) == 1 and set(diag["solve"]) == {"solve_cond"}


def test_fit_has_no_stage_tolerance(graph_path, capsys):
    # nor a count of refinement starts: a fit runs its solver once
    for flag, value in (("--stage-tol", "0.1"), ("--multistart", "1")):
        with pytest.raises(SystemExit) as exc:
            main(["fit", graph_path, "--K", "2", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_sweep_rejects_a_stage_tolerance_before_any_cell(tmp_path, model_path, capsys):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [200],
        "replicates": 1,
        "metrics": ["fit:K=2"],
        "fit": {"stage_weight_tol": 0.01},
    }
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2
    assert "stage_weight_tol" in capsys.readouterr().err
    assert not out.exists()


def test_fit_has_no_estimator_option(graph_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", graph_path, "--K", "2", "--estimator", "qcheck"])
    assert exc.value.code == 2
    assert "--estimator" in capsys.readouterr().err


def test_sweep_estimator_is_checked_before_any_cell_and_fit_takes_none(
    tmp_path, model_path, capsys
):
    cfg = {"models": [{"name": "ref", "path": model_path}], "n": [200], "replicates": 1,
           "metrics": ["fit:K=2"]}
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    for extra, message in (({"fit": {"estimator": "pcheck"}}, "estimator"),
                           ({"estimator": "nope"}, "bad estimator 'nope'")):
        cfg_path.write_text(json.dumps({**cfg, **extra}))
        assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_fit_k1_prints_the_one_block_model(graph_path, capsys):
    assert main(["fit", graph_path, "--K", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pi"] == [1.0] and obj["S"] == [[1.0]]
    assert obj["residual"] == 0.0 and obj["converged"] is True


def test_fits_write_nothing_to_stderr(graph_path, capsys):
    for K in ("2", "3"):
        argv = ["fit", graph_path, "--K", K, "--on-stage-error", "fallback"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["K"] == int(K)
        assert captured.err == ""


def test_fit_over_budget_exits_4_and_names_the_key(graph_path, capsys):
    # (2,4), the first K = 4 key without a closed form, is counted and fails
    assert main(["fit", graph_path, "--K", "4", "--budget", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: counting wheel:k=2,l=4 exceeded the budget of 10 search nodes\n")


def test_bootstrap_weights_give_key_i_the_weight_of_seed_plus_i(graph_path, capsys):
    argv = ["fit", graph_path, "--K", "3", "--on-stage-error", "fallback", "--budget", "10",
            "--seed", "3"]
    assert main(argv + ["--weights", "bootstrap"]) == 0
    assert capsys.readouterr().err == ""
    # every K = 3 key has a closed form, so each gets the weight of its own
    # seed, seed + its index among the fit's keys, whatever the budget
    g = load_edge_list(graph_path)
    cfg = FitConfig(K=3, budget=10)
    weights = cli._bootstrap_weights(g, cfg, 3)
    assert list(weights) == cfg.keys() and len(weights) == 17
    for i, key in enumerate(cfg.keys()):
        res = bootstrap_variance(g, HubCountCache.build(g, [key], None), key, seed=3 + i)
        assert weights[key] == 1.0 / res.sigma2_hat


def test_malformed_model_json_is_input_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"models": [{"name": "ref", "path": str(model)}], "n": [50],
                                    "replicates": 1, "metrics": ["rho_hat"]}))
    for text in ('{"K": 2, "pi": [0.5,', "[0.5, 0.5]"):  # truncated, not an object
        model.write_text(text)
        out = tmp_path / "g.edges"
        assert main(["gen", str(model), "--n", "50", "--out", str(out)]) == 2
        assert not out.exists()
        sweep_out = tmp_path / "s.jsonl"
        assert main(["sweep", str(cfg_path), "--out", str(sweep_out), "--threads", "1"]) == 2
        assert not sweep_out.exists()  # no cell ran
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)
        assert all(str(model) in line for line in err)


def test_model_fields_that_are_not_numbers_are_input_errors(tmp_path, capsys):
    bad = [
        {"K": 2, "pi": "ab", "S": [[1, 1], [1, 1]], "rho": 0.1},
        {"K": "two", "pi": [0.5, 0.5], "S": [[1, 1], [1, 1]], "rho": 0.1},
        {"pi": [0.5, 0.5], "S": [[1, 1], [1]], "rho": 0.1},
        {"pi": 0.5, "S": [[1]], "rho": 0.1, "K": 1},
        {"pi": [0.5, 0.5], "S": [[1, 1], [1, 1]], "rho": None},
        {"grid": [[1, "x"], ["x", 1]]},
        {"grid": 1.0, "resolution": 1},
    ]
    model, out = tmp_path / "model.json", tmp_path / "g.edges"
    for obj in bad:
        model.write_text(json.dumps(obj))
        assert main(["gen", str(model), "--n", "10", "--rho", "0.1", "--out", str(out)]) == 2, obj
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


def test_sweep_checks_inline_models_before_any_cell(tmp_path, capsys):
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    for model in ({"K": 2, "pi": [0.9, 0.9], "S": [[1, 1], [1, 1]], "rho": 0.1},
                  {"K": 2, "pi": "ab", "S": [[1, 1], [1, 1]], "rho": 0.1}, 5, [0.5, 0.5]):
        cfg_path.write_text(json.dumps({"models": [{"name": "bad", "model": model}], "n": [50],
                                        "replicates": 2, "metrics": ["rho_hat"]}))
        assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2
        assert not out.exists()  # no cell ran
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_threads_is_a_sweep_option_only(graph_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", graph_path, "--pattern", "wheel:k=2,l=1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of code run in a new interpreter that imports this graphmoments."""
    src = str(Path(graphmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize_and_linalg():
    # commands that never fit should not pay for these imports at start-up
    code = (
        "import sys, graphmoments.cli; print(sorted(m for m in "
        "('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules))"
    )
    assert _fresh_python(code) == "[]"


def test_commands_on_the_o_e_path_never_load_scipy_sparse(tmp_path, model_path):
    # only the A^2 passes need a sparse matrix; these commands run none
    g, out = str(tmp_path / "g.edges"), str(tmp_path / "out")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "models": [{"name": "ref", "path": model_path}], "n": [150, 200], "replicates": 1,
        "metrics": ["rho_hat", "tau_check:k=2,l=1", "coupling:m=2"],
    }))
    commands = [
        ["gen", model_path, "--n", "300", "--seed", "3", "--out", g],
        ["degrees", g, "--m", "3", "--out", out],
        ["moments", g, "--pattern", "wheel:k=1,l=2"],
        ["moments", g, "--pattern", "wheel:k=2,l=1"],
        ["bootstrap", g, "--key", "2,1", "--B", "20"],
        ["sweep", str(cfg), "--out", out, "--threads", "1"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from graphmoments.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    print(argv[0], sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    lines = _fresh_python(code, json.dumps(commands)).splitlines()
    assert lines == [f"{argv[0]} []" for argv in commands]


def test_degrees_csv_and_summary(tmp_path, graph_path):
    out = tmp_path / "deg.csv"
    summ = tmp_path / "deg.json"
    rc = main(
        ["degrees", graph_path, "--m", "3", "--out", str(out), "--summary", str(summ)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,D1,D2,D3"
    assert len(lines) == 301
    row = lines[1].split(",")
    assert len(row) == 4 and row[0] == "0"
    sobj = json.loads(summ.read_text())
    assert sobj["m"] == 3
    assert "quantiles" in sobj["columns"][0]


def test_degrees_needs_a_vertex(tmp_path, capsys):
    path = tmp_path / "empty.el"
    path.write_text("# n=0\n")
    out = tmp_path / "deg.csv"
    assert main(["degrees", str(path), "--m", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path} has no vertices\n"
    assert not out.exists()


def test_degrees_csv_is_what_csv_writer_writes(tmp_path, graph_path):
    out = tmp_path / "deg.csv"
    assert main(["degrees", graph_path, "--m", "2", "--out", str(out)]) == 0
    profile = m_degrees(load_edge_list(graph_path), 2)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["vertex", "D1", "D2"])
    for i, row in enumerate(profile.counts.tolist()):
        writer.writerow([i] + row)
    assert out.read_bytes() == want.getvalue().encode()


def test_bootstrap_json(graph_path, capsys):
    rc = main(
        ["bootstrap", graph_path, "--key", "2,1", "--B", "24", "--seed", "4"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["B"] == 24
    assert obj["sigma2_hat"] >= 0
    assert obj["manifest"]["parameters"]["key"] == "2,1"


# ids over (command, parameters, seed, version): paths and --threads stay out
@pytest.mark.parametrize("argv, manifest_id", [
    (["moments", "--pattern", "wheel:k=2,l=1", "--pattern", "wheel:k=1,l=2"], "e8a2797a8741b6c7"),
    (["fit", "--K", "2", "--seed", "1", "--on-stage-error", "fallback"], "fda07b057a058d77"),
    (["bootstrap", "--key", "2,1", "--B", "24", "--seed", "4"], "491427a7307609f9"),
    (["sweep", "--seed", "7", "--threads", "2"], "220f1c098b421f1b"),
], ids=["moments", "fit", "bootstrap", "sweep"])
def test_manifest_ids_do_not_move(tmp_path, graph_path, argv, manifest_id):
    command, *options = argv
    out = tmp_path / "out"
    if command == "sweep":
        cfg = {"models": [{"name": "ref", "model": REF.to_json()}], "n": [60],
               "replicates": 2, "lambda": {"kind": "fixed", "value": 4.0},
               "metrics": ["rho_hat"]}
        source = tmp_path / "sweep.json"
        source.write_text(json.dumps(cfg))
        assert main([command, str(source), *options, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    else:
        assert main([command, graph_path, *options, "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
    assert manifest["manifest_id"] == manifest_id


def test_missing_graph_file_is_input_error(tmp_path, capsys):
    rc = main(["moments", str(tmp_path / "nope.edges"), "--pattern", "wheel:k=2,l=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_bad_pattern_is_input_error(graph_path, capsys):
    assert main(["moments", graph_path, "--pattern", "zz"]) == 2


def test_moments_pcheck_past_order_10_is_an_input_error(graph_path, capsys):
    argv = ["moments", graph_path, "--pattern", "wheel:k=2,l=5", "--estimator", "pcheck"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "qcheck" in err[0]


def test_gen_takes_no_budget(tmp_path, model_path, capsys):
    out = tmp_path / "g.edges"
    with pytest.raises(SystemExit) as exc:
        main(["gen", model_path, "--n", "50", "--budget", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err and not out.exists()
    assert main(["gen", model_path, "--n", "50", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "g.edges.manifest.json").read_text())
    assert "budget" not in side["parameters"]


def test_bootstrap_rejects_a_malformed_key(graph_path, capsys):
    for key in ("2", "a,b", "2,1,3"):
        assert main(["bootstrap", graph_path, "--key", key, "--B", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad key") and "use 'k,l' or 'wheel:k=..,l=..'" in err


def test_budget_exceeded_exit_code(graph_path, capsys):
    rc = main(
        [
            "moments",
            graph_path,
            "--pattern",
            "wheel:k=1,l=9",
            "--estimator",
            "pcheck",
            "--budget",
            "1000",
        ]
    )
    assert rc == 4
    assert "qcheck" in capsys.readouterr().err


def test_moments_without_budget_stops_at_the_default_budget(graph_path, monkeypatch, capsys):
    monkeypatch.setattr(graphmoments.cli, "DEFAULT_BUDGET", 10)
    assert main(["moments", graph_path, "--pattern", "edges:0-1,1-2,2-3,3-0"]) == 4
    assert "exceeded" in capsys.readouterr().err


def test_budget_bounds_the_degree_profiles_of_moments_and_sweep(tmp_path, graph_path,
                                                               model_path, capsys):
    # D^(5) is enumerated, so --budget and a sweep's "budget" bound it
    argv = ["moments", graph_path, "--approx", "degree", "--pattern", "wheel:k=5,l=1"]
    assert main(argv + ["--budget", "10"]) == 4
    assert "D^(5)" in capsys.readouterr().err
    cfg, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    cfg.write_text(json.dumps({"models": [{"name": "ref", "path": model_path}], "n": [60],
                               "replicates": 2, "metrics": ["rho_hat", "coupling:m=5"],
                               "budget": 10}))
    assert main(["sweep", str(cfg), "--seed", "7", "--out", str(out), "--threads", "1"]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 2
    assert all(r["error"].startswith("BudgetExceededError: ") for r in recs)
    assert all("rho_hat" in r["metrics"] for r in recs)


def test_sweep_rejects_malformed_config_shapes_before_any_cell(tmp_path, capsys):
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    good = {"models": [{"name": "m", "model": REF.to_json()}], "n": [50], "replicates": 1,
            "metrics": ["rho_hat"]}
    power = {"kind": "power", "c": 1.5, "exponent": 0.3}
    er = {"models": [{"name": "er", "model": erdos_renyi_model(0.1).to_json()}]}
    flat = {"models": [{"name": "w", "model": Graphon(grid=np.ones((2, 2))).to_json()}]}
    for extra, message in (({"models": [5]}, "'models' must be a list of objects"),
                           ({"n": 50}, "'n' must be a list of integers"),
                           ({"n": [0]}, "'n' must be a list of integers"),
                           ({"replicates": "x"}, "'replicates' must be an integer"),
                           ({"replicates": 0}, "'replicates' must be an integer >= 1"),
                           ({"lambda": {"kind": "fixed"}}, "'value' for kind 'fixed'"),
                           ({"lambda": {**power, "c": "x"}}, "'c' and 'exponent' for kind 'power'"),
                           ({"lambda": 5}, "its kind is 'fixed' or 'power'"),
                           ({"n": [1], "lambda": power}, "needs n >= 2"),
                           ({"seed": "abc"}, "seed must be a non-negative integer"),
                           ({"metrics": "rho_hat"}, "'metrics' must be a list of strings"),
                           ({"metrics": ["tau_check:k=2"]}, "must read tau_check:k=..,l=.."),
                           ({"metrics": ["tau_check:k=2,l=x"]}, "with positive integers"),
                           ({"metrics": ["fit:K=0"]}, "must read fit:K=.."),
                           ({"metrics": ["rho_hat:k=1"]}, "must read rho_hat"),
                           ({"metrics": ["nonsense"]}, "unknown metric 'nonsense'"),
                           ({"budget": "many"}, "'budget' must be an integer or null"),
                           ({"fit": 5}, "'fit' must be an object"),
                           ({**er, "lambda": {"kind": "fixed", "value": 100.0}}, "outside (0, 1]"),
                           ({"lambda": {"kind": "fixed", "value": 30.0}}, "rho * max(S) = 1.22"),
                           ({**flat, "lambda": {"kind": "fixed", "value": 0.0}}, "rho=0.0 outside")):
        cfg_path.write_text(json.dumps({**good, **extra}))
        assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2, extra
        assert not out.exists()  # no cell ran
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


def test_sweep_fit_section_takes_fit_config_fields_only(tmp_path, model_path, capsys):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [200],
        "replicates": 2,
        "lambda": {"kind": "fixed", "value": 8.0},
        "metrics": ["fit:K=2"],
        "fit": {"on_stage_error": "fallback"},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    assert main(["sweep", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", str(cfg_path), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # each record is the library fit of its cell's graph under the section's settings
    fit_cfg = FitConfig(K=2, on_stage_error="fallback")
    for rec in map(json.loads, out1.read_text().splitlines()):
        assert rec["error"] is None
        g = sample_block_model(REF.with_rho(rec["rho"]), rec["n"], rec["seed"]).graph
        res = fit_block_model(g, fit_cfg)
        assert rec["metrics"]["fit:K=2.residual"] == res.residual
        assert rec["metrics"]["fit:K=2.converged"] == res.converged

    # a removed threshold, or any other key outside the settable fields, is an
    # input error before any cell runs
    cfg["fit"] = {"xtol": 1e-10}
    cfg_path.write_text(json.dumps(cfg))
    out3 = tmp_path / "s3.jsonl"
    capsys.readouterr()
    assert main(["sweep", str(cfg_path), "--out", str(out3), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "xtol" in err
    assert "accepted keys: weights, on_stage_error" in err
    assert not out3.exists()


def test_sweep_rejects_a_bad_fit_value_before_any_cell(tmp_path, model_path, capsys):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [200],
        "replicates": 1,
        "lambda": {"kind": "fixed", "value": 8.0},
        "metrics": ["fit:K=2"],
        "fit": {"on_stage_error": "retry"},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "s.jsonl"
    assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2
    assert "bad on_stage_error 'retry'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cell_counts_its_wheel_metrics_in_one_pass(tmp_path, model_path, monkeypatch):
    # asked one by one, (2,2) before (2,3) ran the banded A^2 pass and then
    # the packed (A ∘ X) A pass; counted together, (2,3) goes first and its
    # packed pass gives (2,2) too
    passes = []
    a2_map = graphstats.GraphStats.a2_map

    def recording_map(self, fn, entry_bytes, row_bytes=0, left=None, bands=None):
        passes.append("banded" if left is None else "packed")
        a2_map(self, fn, entry_bytes, row_bytes, left, bands)

    monkeypatch.setattr(graphstats.GraphStats, "a2_map", recording_map)
    metrics = ["rho_hat", "tau_check:k=2,l=2", "approx_gap:k=2,l=2", "tau_error:k=2,l=3"]
    cfg = {"models": [{"name": "ref", "path": model_path}], "n": [2000], "replicates": 1,
           "lambda": {"kind": "fixed", "value": 8.0}, "metrics": metrics}
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "s.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    assert passes == ["packed"]
    rec = json.loads(out.read_text())
    assert rec["error"] is None and sorted(rec["metrics"]) == sorted(metrics)
    g = sample_block_model(REF.with_rho(rec["rho"]), rec["n"], rec["seed"]).graph
    key = WheelSpec.simple(2, 2)
    assert rec["metrics"]["tau_check:k=2,l=2"] == wheel_moment_estimates(g, [key])[key]

    # a failing count leaves the metrics listed before it recorded
    cfg["metrics"] = ["rho_hat", "tau_check:k=2,l=1", "tau_check:k=2,l=4"]
    cfg_path.write_text(json.dumps({**cfg, "budget": 10}))
    assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    rec = json.loads(out.read_text())
    assert list(rec["metrics"]) == ["rho_hat"]
    assert "wheel:k=2,l=4 exceeded the budget" in rec["error"]


def test_sweep_byte_identity_and_error_capture(tmp_path, model_path):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [60, 90],
        "replicates": 2,
        "lambda": {"kind": "fixed", "value": 4.0},
        "metrics": ["rho_hat", "lambda_hat", "tau_check:k=2,l=1"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    assert main(["sweep", str(cfg_path), "--seed", "7", "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", str(cfg_path), "--seed", "7", "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    recs = [json.loads(l) for l in out1.read_text().splitlines()]
    assert len(recs) == 4
    cells = [(r["cell_id"], r["rep"]) for r in recs]
    assert cells == sorted(cells)
    assert all("lambda_hat" in r["metrics"] for r in recs)
    assert all(r["error"] is None for r in recs)

    # a metric that fails on a cell's graph is captured per record instead of
    # aborting the sweep
    cfg["metrics"] = ["rho_hat", "tau_check:k=3,l=2"]
    cfg["n"] = [60]
    cfg["budget"] = 1
    cfg_path.write_text(json.dumps(cfg))
    out3 = tmp_path / "s3.jsonl"
    assert main(["sweep", str(cfg_path), "--seed", "7", "--out", str(out3)]) == 0
    recs = [json.loads(l) for l in out3.read_text().splitlines()]
    assert len(recs) == 2
    assert all(r["error"].startswith("BudgetExceededError: ") for r in recs)
    assert all("rho_hat" in r["metrics"] for r in recs)


def test_sweep_with_a2_helpers_in_its_workers_is_byte_identical(tmp_path, model_path,
                                                                 monkeypatch):
    # 8 usable CPUs, which the forked workers of --threads 2 inherit, 4 each: each
    # cell's (2,2) pass, 50 MiB of products or more, runs on threads in its worker
    monkeypatch.setattr(graphstats.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    passes, a2_map = tmp_path / "passes.txt", graphstats.GraphStats.a2_map

    def counting_map(self, fn, *args, **kwargs):
        threads = set()

        def counted(r0, r1, p):
            threads.add(threading.get_ident())
            fn(r0, r1, p)

        a2_map(self, counted, *args, **kwargs)
        with open(passes, "a") as fh:  # one line per pass: process, threads
            fh.write(f"{os.getpid()} {len(threads)}\n")

    monkeypatch.setattr(graphstats.GraphStats, "a2_map", counting_map)
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [1000, 1500],
        "replicates": 1,
        "lambda": {"kind": "fixed", "value": 40.0},
        "metrics": ["tau_check:k=2,l=2"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"]
    for out, threads in zip(outs, ("1", "2")):
        assert main(["sweep", str(cfg_path), "--seed", "3", "--out", str(out),
                     "--threads", threads]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    recs = [json.loads(line) for line in outs[0].read_text().splitlines()]
    assert len(recs) == 2 and all(r["error"] is None for r in recs)
    in_workers = [int(t) for pid, t in map(str.split, passes.read_text().splitlines())
                  if int(pid) != os.getpid()]
    assert in_workers and max(in_workers) > 1, in_workers


def test_sweep_workers_split_the_cpus_between_them(tmp_path, model_path, monkeypatch):
    # under --threads 2 each worker process runs its A^2 passes on half the CPUs
    shares = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shares.append(self.submit(graphstats._workers).result())

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [60],
        "replicates": 2,
        "lambda": {"kind": "fixed", "value": 4.0},
        "metrics": ["rho_hat"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "s.jsonl"
    assert main(["sweep", str(cfg_path), "--seed", "3", "--out", str(out), "--threads", "2"]) == 0
    assert shares == [max(1, graphstats._workers() // 2)]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip()
