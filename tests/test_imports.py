"""Every module of the package uses each name it imports, every private
module-level name it defines, and every local name its functions assign.

No linter ships with the test dependencies, so this parses the sources with
``ast``: a name bound by ``import`` or ``from ... import`` must be read
somewhere in its module, or be listed in the module's ``__all__``; a
module-level name with one leading underscore must be read somewhere in the
package outside its own definition; a name a function assigns must be read
in that function or a function nested in it, where the target of an
augmented assignment such as ``x *= w`` counts as read. It also checks that
one function builds every ``ExistenceReport`` and that ``detector.py``
edits no record after building it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "felogit").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert {"__init__.py", "_kernels.py", "estimator.py", "panel.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_unread_private_definitions():
    # each top-level statement of the package, with the names it reads
    statements = [(path.name, node, _read_names(node))
                  for path in SOURCES
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    unread = [
        f"{module} line {node.lineno}: {name}"
        for module, node, _ in statements
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in reads for _, other, reads in statements if other is not node)
    ]
    assert unread == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func: ast.AST):
    """The nodes of ``func``'s body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(tree: ast.Module) -> list[str]:
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCTIONS):
            continue
        assigned = {}
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                assigned.update(dict.fromkeys(node.names))
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read.update(node.target.id for node in ast.walk(func)
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name))
        unread += [f"line {line}: {name}" for name, line in assigned.items()
                   if line is not None and name != "_" and name not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert _unread_locals(ast.parse(path.read_text(encoding="utf-8"))) == []


def _report_constructions() -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each ``ExistenceReport(...)`` call."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            callee = getattr(node, "func", None)
            if getattr(callee, "id", getattr(callee, "attr", None)) == "ExistenceReport":
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, owners[-1] if owners else None))  # walk is outer first
    return found


def test_one_function_constructs_every_existence_report():
    assert _report_constructions() == [("detector.py", "_qp_report")]


def test_detector_assigns_to_no_attribute():
    # a report is built whole, once: no code edits a record after construction
    tree = ast.parse((SOURCES[0].parent / "detector.py").read_text(encoding="utf-8"))
    stores = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    setattrs = [f"line {node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"]
    assert stores + setattrs == []
