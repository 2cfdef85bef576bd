"""Static guard on the per-grid lookup rule.

A grid fixes its operator table and its dyadic family, so no function of
``sqglab`` takes either: each looks it up from its field's grid
(``operator_table(grid)``, ``build_partition(grid)``).  A parameter
annotated ``DyadicFamily`` or ``OperatorTable``, or named ``family`` or
``fam``, breaks the rule.  Objects that carry choices of their own, a
``WindowFamily`` (its scale) or a ``KernelSplit`` (its beta and
oversampling), are passed, and checked against the grid where they enter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqglab"
LOOKED_UP = {"DyadicFamily", "OperatorTable"}
NAMES = {"family", "fam"}


def _mentions(annotation: ast.AST | None) -> set:
    """The looked-up type names an annotation mentions, also inside a string."""
    found = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name) and node.id in LOOKED_UP:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in LOOKED_UP:
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {name for name in LOOKED_UP if name in node.value}
    return found


def lookup_violations(source: str, filename: str) -> list[str]:
    """Parameters of ``source`` that pass what the grid fixes, one line each."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        name = getattr(node, "name", "<lambda>")
        for p in params:
            why = sorted(_mentions(p.annotation)) + (["named " + p.arg] if p.arg in NAMES else [])
            if why:
                found.append(f"{filename}:{p.lineno} {name}({p.arg}): {', '.join(why)}")
    return found


def test_package_keeps_the_lookup_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += lookup_violations(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize("source", [
    "def zygmund_norm(f, r, family=None): pass\n",
    "def block_sups(f, fam: DyadicFamily | None = None): pass\n",
    "def block_sups(f, *, table: 'OperatorTable'): pass\n",
    "class A:\n    def values(self, ops: grid.OperatorTable): pass\n",
    "g = lambda f, fam: fam\n",
    "def f(*families: 'list[DyadicFamily]'): pass\n",
])
def test_guard_flags_a_passed_grid_object(source):
    assert len(lookup_violations(source, "norms.py")) == 1


@pytest.mark.parametrize("source", [
    "def uniformly_local_norm(f, param, windows: WindowFamily, kind): pass\n",
    "def simulate(config, theta0, split: KernelSplit | None = None): pass\n",
    "def build_partition(grid: Grid2D) -> DyadicFamily: pass\n",
    "def operator_table(grid: Grid2D) -> 'OperatorTable': pass\n",
])
def test_guard_passes_what_the_rule_allows(source):
    assert lookup_violations(source, "norms.py") == []
