"""Every public function of the library feeds a pipeline, the CLI or a script.

A public function, method or class of ``src/robustreg`` must be referenced
somewhere other than in its own definition and in ``__init__.py``: in
``src/``, in ``scripts/`` or in the non-test files of ``perfbench/``.  A
name that only the tests call is test-only API and should go, unless it is
listed in ``CHECKED`` with the claim that keeps it.  Names are matched
syntactically (a ``Name`` or an attribute), so methods of different
classes that share a name count as one.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustreg"

CHECKED = {
    # the primal-to-dual bound, pinned against the exact dual search by
    # test_dimensions.py::TestDualClass::test_dual_fat_within_the_stated_bound
    "dual_fat_upper_bound",
    # the convex class of constants, on which proper_learn's properness
    # witness is exercised (test_pipelines.py, test_mw.py)
    "ConstantClassOracle",
}


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users = [*(ROOT / "scripts").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    trees = {p: ast.parse(p.read_text()) for p in sources + users}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sources:
        for qualified, node in _public_definitions(trees[path]):
            name = qualified.rsplit(".", 1)[-1]
            if used[name] - _references(node)[name] <= 0 and name not in CHECKED:
                unused.append(f"{path.name}: {qualified}")
    assert not unused, "called only from tests: " + ", ".join(unused)


def test_the_allowlist_names_live_definitions():
    defined = {q.rsplit(".", 1)[-1] for p in PACKAGE.glob("*.py")
               for q, _ in _public_definitions(ast.parse(p.read_text()))}
    assert CHECKED <= defined
