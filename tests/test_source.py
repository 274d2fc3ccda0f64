"""Source-level rules for the package itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def test_cli_import_builds_no_suffix_table_and_no_thread_pool():
    # Every CLI process pays for its imports: the brute-force table is
    # built on the first solve that needs it, and no solver uses threads.
    code = ("import permcsp.cli, sys\n"
            "from permcsp import solvers\n"
            "print(solvers._suffix_table.cache_info().currsize,\n"
            "      'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "False"]


def _import_time_numpy_calls(tree, prefix):
    """The lines of ``tree`` that call ``np.*`` or ``numpy.*`` while the
    module is imported: top-level statements and class bodies, and the
    decorators and default arguments of functions, but not their bodies."""
    found = []

    def run_at_import(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots = node.decorator_list + node.args.defaults + \
                    [d for d in node.args.kw_defaults if d is not None]
            elif isinstance(node, ast.ClassDef):
                run_at_import(node.body)
                roots = node.decorator_list + node.bases + \
                    [k.value for k in node.keywords]
            else:
                roots = [node]
            for root in roots:
                for call in ast.walk(root):
                    if isinstance(call, ast.Call) and \
                            _attribute_root(call.func) in ("np", "numpy"):
                        found.append("%s%d" % (prefix, call.lineno))

    run_at_import(tree.body)
    return found


def _attribute_root(func):
    while isinstance(func, ast.Attribute):
        func = func.value
    return func.id if isinstance(func, ast.Name) else None


def test_no_module_calls_numpy_at_import_time():
    # Every CLI process and every benchmark worker pays for what the
    # package does at import, so array work waits for the first call.
    sample = ("import numpy as np\nA = np.zeros(3)\n"
              "def f(x=np.int8(0)) -> np.ndarray:\n    return np.ones(2)\n"
              "class C:\n    B = np.random.default_rng(1).random()\n"
              "    def m(self):\n        return np.eye(2)\n")
    assert _import_time_numpy_calls(ast.parse(sample), "") == ["2", "3", "6"]
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        found += _import_time_numpy_calls(
            ast.parse(path.read_text(), filename=str(path)), path.name + ":")
    assert found == []


def test_cached_suffix_tables_are_read_only():
    from permcsp import solvers

    for m in (2, 5):
        with pytest.raises(ValueError, match="read-only"):
            solvers._suffix_table(m)[0] = 1


def test_cli_import_leaves_networkx_out():
    # Every CLI process pays for what the package imports; graphs are the
    # package's own type, and networkx is only a test oracle.
    code = "import permcsp.cli, sys; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


# Functions allowed to call themselves.  A solver that recurses once per
# vertex or variable fails past Python's recursion limit, so none does.
_RECURSIVE = set()


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


def _private_uses(tree):
    """The ``_``-prefixed names of permcsp modules that ``tree`` imports
    or reads as ``module._name``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "permcsp":
            for alias in node.names:
                if node.module == "permcsp":
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append("%s.%s" % (node.value.id, node.attr))
    return found


def test_cli_uses_no_private_name_of_another_module():
    # The commands reach the solvers through their public entry points,
    # so verify cannot drift back onto a private solver.
    sample = ("from permcsp import solvers\nfrom permcsp.core import _x\n"
              "solvers._best_convenient(solvers.solve_dp3, _x, self._y)\n")
    assert _private_uses(ast.parse(sample)) == ["_x",
                                                "solvers._best_convenient"]
    cli = _PACKAGE / "cli.py"
    assert _private_uses(ast.parse(cli.read_text(), filename=str(cli))) == []
