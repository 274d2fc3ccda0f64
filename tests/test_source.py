"""Source-level rules for the package itself."""

import ast
import pathlib

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
