"""Checks on the source text of the package, its tests and its demos."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _redefined(tree):
    """(line, name) of each module-level def or class whose name an earlier
    one at module level already took; the later one silently replaces it."""
    seen, again = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                again.append((node.lineno, node.name))
            seen.add(node.name)
    return again


def test_no_module_level_def_or_class_is_defined_twice():
    paths = sorted(path for top in ("src/camlab", "tests", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    found = {str(path.relative_to(ROOT)): _redefined(ast.parse(path.read_text()))
             for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan sees each kind of redefinition, decorated or not, and no
    # other binding of the name
    assert _redefined(ast.parse("def f(): pass\nclass C: pass\n@g\ndef f(): pass\n"
                                "class C: pass\nf = 1\ndef h(): pass\n")) == [(4, "f"), (5, "C")]
