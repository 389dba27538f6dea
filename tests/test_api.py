"""The public API is exactly what __all__ lists, so any change to it shows in a diff; and
every private module-level name is used somewhere in the package."""

import ast
import types
from pathlib import Path

import stochrd


def test_all_lists_every_public_name_once():
    assert len(stochrd.__all__) == len(set(stochrd.__all__))
    public = {name for name, value in vars(stochrd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(stochrd.__all__) == public | {"__version__"}


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a function, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _used(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, directly or as an attribute."""
    return {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)} | {
        n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}


def test_every_private_helper_is_used():
    statements = [stmt for path in sorted(Path(stochrd.__file__).parent.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    unused = []
    for stmt in statements:
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _used(other) for other in statements if other is not stmt):
                unused.append(name)
    assert unused == []
