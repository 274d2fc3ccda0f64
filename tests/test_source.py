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
