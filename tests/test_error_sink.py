"""Audit of the CLI's error output: a static scan of cli.py.

Every error of the CLI reaches stderr through one of two places: main,
which prints a GeomfreeError (the commands' own argument errors included)
as one `error:` line, and _Parser.error, which prints argparse's usage
errors the same way.  No other function of cli.py names sys.stderr.
"""

import ast
import pathlib

from geomfree import cli


def test_cli_writes_to_stderr_only_in_main_and_the_parser_error():
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if (isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__")
                or isinstance(node, (ast.Name, ast.alias)) and "stderr" in (
                    getattr(node, "id", None), getattr(node, "name", None))):
            users.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8")), [])
    assert users == {"main", "_Parser.error"}
