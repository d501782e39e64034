import ast
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
