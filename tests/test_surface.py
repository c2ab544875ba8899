"""A ratchet on the public surface of the package: two counts over the
modules of src/fracdiff (outside __init__) may fall but never grow.

* exported names with no caller: the ``__all__`` names that no module loads,
  as a bare name or as an attribute;
* defaulted parameters: the parameters with a default of the public
  module-level functions and of the public methods and ``__init__`` of the
  public classes.

Lower a ceiling when a change lowers its count.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fracdiff")
UNCALLED_EXPORTS = 15
DEFAULTED_PARAMETERS = 37


def _trees():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    return [ast.parse(open(p, encoding="utf-8").read()) for p in paths
            if os.path.basename(p) != "__init__.py"]


def _defaults(fn):
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def test_no_new_uncalled_export():
    loads, exported = set(), []
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported += [e.value for e in node.value.elts]
    uncalled = sorted(name for name in exported if name not in loads)
    assert len(uncalled) <= UNCALLED_EXPORTS, uncalled


def test_no_new_defaulted_parameter():
    count = 0
    for tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                count += _defaults(node)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                count += sum(_defaults(m) for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and (m.name == "__init__" or not m.name.startswith("_")))
    assert count <= DEFAULTED_PARAMETERS, count
