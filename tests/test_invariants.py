import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import graphmoments


def test_package_has_no_assert_statements():
    # `python -O` strips asserts; invariants raise InvariantError instead
    root = Path(graphmoments.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_budget_errors_come_from_the_one_search():
    # every enumeration spends its budget in counting.embeddings; moments'
    # induced-count hint only re-raises its error
    root = Path(graphmoments.__file__).parent
    sites = Counter(
        path.name
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BudgetExceededError"
    )
    assert sites == {"counting.py": 1, "moments.py": 1}


def test_exports_are_exactly_the_imported_names():
    init = Path(graphmoments.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in graphmoments.__all__ if not hasattr(graphmoments, name)] == []
    assert len(set(graphmoments.__all__)) == len(graphmoments.__all__)
    assert set(graphmoments.__all__) == imported


def test_package_reads_no_environment_variable():
    # every setting is an argument or a CLI flag; none has a second,
    # environment-variable route
    reads = {"environ", "environb", "getenv", "getenvb"}
    root = Path(graphmoments.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in reads
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in reads for alias in node.names)
        )
    ]
    assert found == []


def test_every_traced_name_exists():
    # perfbench's --trace runs wrap these names; one renamed or deleted here
    # should fail the suite, not only a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"graphmoments.{mod}"), attr, None))
    ] + [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in tracing.CLASSMETHODS
        if not isinstance(
            vars(getattr(importlib.import_module(f"graphmoments.{mod}"), cls, object)).get(attr),
            classmethod,
        )
    ]
    assert tracing.FUNCTIONS and tracing.CLASSMETHODS and missing == []


def test_the_benchmark_workloads_set_up(monkeypatch):
    # the workloads pass package fields and options by name (FitConfig's
    # on_stage_error among them); one deleted here should fail the suite,
    # not only a benchmark run
    root = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(root))  # workloads imports its sibling reference.py
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    fit, dense = workloads.FitK2(1), workloads.DenseCounts(1)
    fit.setup()
    dense.setup()
    assert len(fit.graphs) == fit.SEEDED + fit.FIXED and dense.g.edge_count > 0
