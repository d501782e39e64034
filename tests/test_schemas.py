"""Every JSON artifact the CLI emits validates against its shipped schema."""
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from graphmoments import BlockModel, save_model
from graphmoments.cli import main

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02
)


def schema(name):
    text = resources.files("graphmoments.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def check(obj, name):
    jsonschema.validate(obj, schema(name), cls=jsonschema.Draft7Validator)


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("g")
    mp = d / "ref.json"
    save_model(REF, mp)
    out = d / "g.edges"
    assert main(["gen", str(mp), "--n", "400", "--seed", "3", "--out", str(out)]) == 0
    return str(out), str(mp), d


def test_model_files_validate(graph_path):
    _, mp, _ = graph_path
    check(json.loads(open(mp).read()), "blockmodel")


def test_graphon_schema():
    from graphmoments import Graphon

    w = Graphon(grid=np.full((4, 4), 1.0))
    check(w.to_json(), "graphon")


def test_manifest_sidecar_validates(graph_path):
    gp, _, _ = graph_path
    check(json.loads(open(gp + ".manifest.json").read()), "manifest")


def test_moment_table_validates(graph_path, capsys):
    gp, _, _ = graph_path
    assert main(["moments", gp, "--pattern", "wheel:k=2,l=1", "--pattern",
                 "wheel:k=1+2,l=2+1", "--estimator", "pcheck"]) == 0
    obj = json.loads(capsys.readouterr().out)
    check(obj, "moment_table")
    check(obj["manifest"], "manifest")


def test_degree_approx_table_validates(graph_path, capsys):
    gp, _, _ = graph_path
    assert main(["moments", gp, "--pattern", "wheel:k=2,l=2", "--approx", "degree"]) == 0
    check(json.loads(capsys.readouterr().out), "moment_table")


def test_fit_result_validates(graph_path, capsys):
    gp, _, _ = graph_path
    rc = main(["fit", gp, "--K", "2", "--report-stages"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    check(obj, "fit_result")


def test_bootstrap_result_validates(graph_path, capsys):
    gp, _, _ = graph_path
    assert main(["bootstrap", gp, "--key", "2,1", "--B", "16", "--seed", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    check(obj, "bootstrap_result")


def test_degrees_summary_validates(graph_path, capsys):
    gp, _, _ = graph_path
    assert main(["degrees", gp, "--m", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    check(obj, "degrees_summary")


def test_edgeless_degrees_summary_validates(tmp_path, capsys):
    # mean degree 0: no normalized quantiles, and the key is left out
    path = tmp_path / "edgeless.el"
    path.write_text("# n=3\n")
    assert main(["degrees", str(path), "--m", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    check(obj, "degrees_summary")
    assert obj["mean_degree"] == 0 and all("normalized_quantiles" not in c for c in obj["columns"])


def test_sweep_lines_validate(graph_path):
    gp, mp, d = graph_path
    cfg = {
        "models": [{"name": "ref", "path": mp}],
        "n": [80],
        "replicates": 2,
        "metrics": ["rho_hat", "tau_check:k=2,l=1", "fit:K=2"],
    }
    cfg_path = d / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = d / "lines.jsonl"
    assert main(["sweep", str(cfg_path), "--seed", "2", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        check(json.loads(line), "sweep_line")


def test_schemas_are_strict_enough():
    # a wrong-typed field must be rejected, not silently accepted
    bad = {"schema_version": "1", "kind": "empirical", "n": "x", "entries": []}
    with pytest.raises(jsonschema.ValidationError):
        check(bad, "moment_table")
