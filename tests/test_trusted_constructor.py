"""Audit of the trusted constructor: a static scan of the package source.

series_kernel._new_cv builds a CertifiedValue without checking that its
bound is finite and >= 0.  Only the producers whose bounds are so by
construction may use it: series_kernel._eval and analysis.arcsin_newton,
plus CertifiedValue.__new__ itself, after its check.
"""

import ast
import pathlib

import geomfree

PKG_DIR = pathlib.Path(geomfree.__file__).parent
ALLOWED = {
    "series_kernel.CertifiedValue.__new__",  # the checked constructor
    "series_kernel._eval",
    "analysis.arcsin_newton",
}


def _uses(path, name):
    """Qualified names of the functions in `path` that read `name`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(".".join([path.stem] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_new_cv_is_used_only_by_the_trusted_producers():
    users = set()
    for path in sorted(PKG_DIR.glob("*.py")):
        users |= _uses(path, "_new_cv")
    assert users == ALLOWED


def test_tuple_new_appears_only_where_the_trusted_name_is_bound():
    sites = []
    for path in sorted(PKG_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "tuple"):
                sites.append(path.name)
    assert sites == ["series_kernel.py"]
