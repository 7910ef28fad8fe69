"""Audit of the trusted constructor: a static scan of the package source.

series_kernel._new_cv builds a CertifiedValue without checking that its
bound is finite and >= 0.  Only the producers whose bounds are so by
construction may use it: the evaluator that series_kernel._kernel builds
(sin_eval and cos_eval) and analysis.arcsin_newton, plus
CertifiedValue.__new__ itself, after its check.

The same scan pins the float kernel's straight-line hot path: _kernel,
_sin_value and analysis.arcsin_newton hold no loop, series_kernel never
names math.fsum, and the evaluator calls two_prod as the module global that
perfbench wraps.
"""

import ast
import pathlib

import pytest

import geomfree

PKG_DIR = pathlib.Path(geomfree.__file__).parent
ALLOWED = {
    "series_kernel.CertifiedValue.__new__",  # the checked constructor
    "series_kernel._kernel.evaluate",
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


def _function(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


@pytest.mark.parametrize("module, name", [("series_kernel", "_kernel"),
                                          ("series_kernel", "_sin_value"),
                                          ("analysis", "arcsin_newton")],
                         ids=["_kernel", "_sin_value", "arcsin_newton"])
def test_the_float_kernel_has_no_loop(module, name):
    fn = _function(PKG_DIR / f"{module}.py", name)
    loops = [node for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]
    assert loops == []


def test_series_kernel_never_names_fsum():
    tree = ast.parse((PKG_DIR / "series_kernel.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert "fsum" not in names


def test_the_kernel_calls_the_error_free_transforms_as_module_globals():
    # perfbench reads doubledouble.calls_per_eval, doubledouble.self_share and
    # series_kernel.reduced_share by wrapping series_kernel.two_prod (it wraps
    # no two_sum, which the evaluator writes out); an inlined copy or a local
    # alias of two_prod would leave those metrics silently empty
    path = PKG_DIR / "series_kernel.py"
    names = {"two_prod"}
    fn = _function(path, "_kernel")
    called = {node.func.id for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert names <= called
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    bound |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert not names & bound
    imported = {(node.module, alias.name, alias.asname) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {("doubledouble", name, None) for name in names} <= imported
