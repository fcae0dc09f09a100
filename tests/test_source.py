"""Every top-level name of the package is there for program code to read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relaysec"


def defined_names(stmt):
    """Names a top-level statement defines: a function, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(stmt):
    """Names a statement reads, bare or as an attribute; imports and strings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_top_level_name_is_read_by_program_code():
    # Code that only tests call belongs in the tests: each top-level
    # definition in src/relaysec must be read by some other top-level
    # statement of the package.  Dunder names are exempt.
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [read_names(stmt) for _, stmt in statements]
    unread = [f"{module}.{name}" for i, (module, stmt) in enumerate(statements)
              for name in sorted(defined_names(stmt))
              if not (name.startswith("__") and name.endswith("__"))
              and not any(name in r for j, r in enumerate(reads) if j != i)]
    assert unread == [], f"top-level names that no program code reads: {unread}"
