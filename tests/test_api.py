"""The public API is exactly what __all__ lists, so any change to it shows in a diff;
every private module-level name is used somewhere in the package; every default of
the public API is overridden by some caller; the on-grid tolerance, the certificate
verdict and the pullback columns each live in one function; and the package reads scipy
only through LAPACK and the sine transforms."""

import ast
import inspect
import types
from collections import defaultdict
from pathlib import Path

import stochrd

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_import_is_read():
    # an import bound but never read, in the package, the tests or the demos; names the
    # package lists in __all__ are its exports
    unread = []
    for folder in ("src/stochrd", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            read |= {c.value for stmt in tree.body if "__all__" in _defined(stmt)
                     for c in ast.walk(stmt) if isinstance(c, ast.Constant)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                        node, "module", None) != "__future__":
                    unread += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                               for alias in node.names
                               if (alias.asname or alias.name).split(".")[0] not in read]
    assert unread == []


def _public_callables():
    """(label, callee name, function, skip) for every public function and method in
    __all__; skip counts the leading parameters a call does not pass (self or cls)."""
    for name in stochrd.__all__:
        obj = getattr(stochrd, name)
        if inspect.isfunction(obj):
            yield name, name, obj, 0
        elif inspect.isclass(obj):
            if "__init__" in vars(obj):  # a dataclass's too: its fields are parameters
                yield name, name, obj.__init__, 1
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    skip = int(isinstance(member, classmethod))
                    yield f"{name}.{attr}", attr, member.__func__, skip
                elif inspect.isfunction(member):
                    yield f"{name}.{attr}", attr, member, 1


def test_every_default_has_a_caller():
    # every call in the package, the tests, the demos and the benchmark, by callee name
    counts, keywords, starred = defaultdict(set), defaultdict(set), set()
    for folder in ("src/stochrd", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                counts[callee].add(len(node.args))
                keywords[callee].update(k.arg for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args) or None in keywords[callee]:
                    starred.add(callee)  # *args or **kwargs passes every parameter
    unset = []
    for label, callee, fn, skip in _public_callables():
        params = list(inspect.signature(fn).parameters.values())[skip:]
        for i, param in enumerate(params):
            if param.default is param.empty or callee in starred or param.name in keywords[callee]:
                continue
            if param.kind is param.KEYWORD_ONLY or not any(c > i for c in counts[callee]):
                unset.append(f"{label}({param.name})")
    assert unset == []


def _loaded_in(name: str, called: bool = False) -> list[str]:
    """module.definition for each top-level definition of the package that reads name,
    or, with called set, calls it; the bare module for any other top-level statement."""
    found = []
    for path in sorted(Path(stochrd.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            nodes = ([n.func for n in ast.walk(stmt) if isinstance(n, ast.Call)] if called
                     else ast.walk(stmt))
            # a bare name or an attribute, as in c.path.value_at(...)
            if any((isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name)
                   and isinstance(n.ctx, ast.Load) for n in nodes):
                found.append(f"{path.stem}.{stmt.name}" if hasattr(stmt, "name") else path.stem)
    return found


def test_grid_tolerance_is_read_only_by_snap():
    # one on-grid rule: every window, evaluation and mask goes through _snap
    assert _loaded_in("_GRID_RTOL") == ["wiener._snap"]


def test_trapezoids_are_summed_only_by_quad_exp_and_h1_certificate():
    # one truncated memory quadrature: the radii and the tempered-forcing check call
    # quad_exp, and the only other trapezoid is the gradient certificate's unit window
    assert _loaded_in("trapezoid", called=True) == ["cocycle.h1_certificate", "wiener.quad_exp"]


def test_path_and_forcing_clock_are_read_only_by_tables():
    # one reader: the solver evaluates a column's path and forcing clock only for its
    # step tables, and records take their ledger rows from those tables
    for name in ("value_at", "modulation_at"):
        assert [d for d in _loaded_in(name, called=True)
                if d.startswith("solver.")] == ["solver._tables"], name


def test_reports_are_built_only_by_verdict():
    # one verdict rule: the first NaN, else the first smallest margin, is the worst
    assert _loaded_in("CertificateReport", called=True) == ["report._verdict"]


def test_scipy_is_imported_only_for_lapack_and_the_sine_factor():
    # the package's scipy surface: LAPACK at module level, and the sine transforms inside
    # the 2-d transform factor, which imports them when it is built
    found = set()
    for path in sorted(Path(stochrd.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = path.stem if isinstance(stmt, (ast.Import, ast.ImportFrom)) else (
                f"{path.stem}.{getattr(stmt, 'name', '<statement>')}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = ([f"scipy.{alias.name}" for alias in node.names]
                               if node.module == "scipy" else [node.module])
                else:
                    continue
                found |= {(where, m) for m in modules if m.split(".")[0] == "scipy"}
    assert found == {("solver", "scipy.linalg.lapack"), ("solver._SineFactor", "scipy.fft")}


def test_pullback_columns_are_built_only_by_pullback_ends():
    # one builder: every pullback ensemble, the calibration's too, draws its members and
    # builds its columns in _pullback_ends
    for name in ("_Column", "SeedSequence"):
        assert [d for d in _loaded_in(name, called=True)
                if d.startswith("attractor.")] == ["attractor._pullback_ends"], name
