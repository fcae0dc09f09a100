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


def imported_names(tree):
    """(name, line) of every name an import binds; __future__ imports bind none."""
    return [((a.asname or a.name).split(".")[0], n.lineno) for n in ast.walk(tree)
            if isinstance(n, ast.Import)
            or isinstance(n, ast.ImportFrom) and n.module != "__future__"
            for a in n.names]


def unused_imports(source):
    """'name (line)' of each imported name that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read]


def test_unused_import_check_finds_an_unused_name():
    assert unused_imports("import os\nfrom math import pi as p, tau\nprint(tau)\n") == [
        "os (line 1)", "p (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_import_is_read():
    # Each name a module of src/relaysec imports must be read in it, as a
    # bare name or the base of an attribute; annotations count.
    unused = {path.stem: found for path in sorted(SRC.glob("*.py"))
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}, f"imported names that no code of their module reads: {unused}"
