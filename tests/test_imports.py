"""Every import in the package sits at module level.

An import statement inside a function is re-run on every call, and costs
more the deeper the interpreter stack is when it runs.
"""

import ast
import pathlib

import aclp


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(pathlib.Path(aclp.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}"
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(found) == []
