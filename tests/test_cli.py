import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphmoments
from graphmoments import (
    BlockModel,
    FitConfig,
    fit_block_model,
    load_edge_list,
    sample_block_model,
    save_model,
)
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


def test_fit_warns_on_stderr_when_counts_fall_back(graph_path, capsys):
    argv = ["fit", graph_path, "--K", "3", "--multistart", "1", "--on-stage-error", "fallback"]
    # keys past the closed forms, such as (3,2), are enumerated under the budget
    assert main(argv + ["--budget", "10"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["diagnostics"]["approximation"] == "degree"
    warning = captured.err.strip().splitlines()
    assert len(warning) == 1 and warning[0].startswith("warning: ")
    assert "wheel:k=3,l=2" in warning[0] and "degree approximation" in warning[0]
    assert main(["fit", graph_path, "--K", "2", "--on-stage-error", "fallback"]) == 0
    assert capsys.readouterr().err == ""


def test_fit_warning_names_only_the_approximated_keys(graph_path, capsys):
    argv = ["fit", graph_path, "--K", "3", "--multistart", "1", "--on-stage-error", "fallback"]
    assert main(argv + ["--budget", "10"]) == 0
    captured = capsys.readouterr()
    approximated = json.loads(captured.out)["diagnostics"]["approximated_keys"]
    # only enumerated keys can exceed a budget; the closed forms stay exact
    assert approximated and len(approximated) < len(FitConfig(K=3).keys())
    assert "wheel:k=2,l=3" not in approximated and "wheel:k=1,l=5" not in approximated
    names = captured.err.split("budget; ", 1)[1].split(" fell back", 1)[0]
    assert names.split(", ") == approximated


def test_threads_is_a_sweep_option_only(graph_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", graph_path, "--pattern", "wheel:k=2,l=1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_optimize_and_linalg():
    # commands that never fit should not pay for these imports at start-up
    code = (
        "import sys, graphmoments.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))"
    )
    src = str(Path(graphmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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


def test_bootstrap_json(graph_path, capsys):
    rc = main(
        ["bootstrap", graph_path, "--key", "2,1", "--B", "24", "--seed", "4"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["B"] == 24
    assert obj["sigma2_hat"] >= 0
    assert obj["manifest"]["parameters"]["key"] == "2,1"


def test_missing_graph_file_is_input_error(tmp_path, capsys):
    rc = main(["moments", str(tmp_path / "nope.edges"), "--pattern", "wheel:k=2,l=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_bad_pattern_is_input_error(graph_path, capsys):
    assert main(["moments", graph_path, "--pattern", "zz"]) == 2


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


def test_sweep_fit_section_takes_fit_config_fields_only(tmp_path, model_path, capsys):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [200],
        "replicates": 2,
        "lambda": {"kind": "fixed", "value": 8.0},
        "metrics": ["fit:K=2"],
        "fit": {"on_stage_error": "fallback", "multistart": 2},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    assert main(["sweep", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", str(cfg_path), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # each record is the library fit of its cell's graph under the section's settings
    fit_cfg = FitConfig(K=2, on_stage_error="fallback", multistart=2)
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
    assert "weights, stage_weight_tol, multistart, seed, on_stage_error" in err
    assert not out3.exists()


def test_sweep_rejects_a_bad_fit_value_before_any_cell(tmp_path, model_path, capsys):
    cfg = {
        "models": [{"name": "ref", "path": model_path}],
        "n": [200],
        "replicates": 1,
        "lambda": {"kind": "fixed", "value": 8.0},
        "metrics": ["fit:K=2"],
        "fit": {"multistart": 0},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "s.jsonl"
    assert main(["sweep", str(cfg_path), "--out", str(out), "--threads", "1"]) == 2
    assert "multistart must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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

    # a failing metric is captured per record instead of aborting the sweep
    cfg["metrics"] = ["rho_hat", "nonsense_metric"]
    cfg["n"] = [60]
    cfg_path.write_text(json.dumps(cfg))
    out3 = tmp_path / "s3.jsonl"
    assert main(["sweep", str(cfg_path), "--seed", "7", "--out", str(out3)]) == 0
    recs = [json.loads(l) for l in out3.read_text().splitlines()]
    assert len(recs) == 2
    assert all(r["error"] and "nonsense_metric" in r["error"] for r in recs)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip()
