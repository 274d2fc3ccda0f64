"""Source-level rules for the package itself."""

import ast
import os
import pathlib
import subprocess
import sys

import permcsp

_PACKAGE = pathlib.Path(permcsp.__file__).parent


def test_package_has_no_assert_statements():
    # Construction invariants raise InternalConsistencyError, so they
    # still run under ``python -O``, which strips every assert.
    modules = sorted(_PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_leaves_networkx_out():
    # Every CLI process pays for what the package imports; graphs are the
    # package's own type, and networkx is only a test oracle.
    code = "import permcsp.cli, sys; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


# Functions that still recurse once per vertex or variable, so that a
# large enough input passes Python's recursion limit; making them
# iterative is ROADMAP item 4.  No other package function calls itself.
_RECURSIVE = {"solvers.py:solve_sat.dpll", "solvers.py:solve_3coloring.assign"}


def _self_calls(tree, prefix):
    """The qualified names of the functions in ``tree`` that call
    themselves by name (``f(...)``, or ``self.f(...)`` in a method)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(call, ast.Call)
                       and _callee(call.func) == name
                       for call in ast.walk(child)):
                    found.append(prefix + ".".join(scope + (name,)))
                visit(child, scope + (name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")):
        return func.attr
    return None


def test_no_package_function_calls_itself():
    sample = ("def f(n):\n    return f(n - 1)\n"
              "class C:\n    def m(self):\n        def g():\n"
              "            return self.m()\n        return g()\n")
    assert _self_calls(ast.parse(sample), "") == ["f", "C.m"]
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        found += _self_calls(ast.parse(path.read_text(), filename=str(path)),
                             path.name + ":")
    assert sorted(found) == sorted(_RECURSIVE)
