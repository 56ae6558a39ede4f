"""Every name a module imports is read somewhere in that module, and every
module-level function, class and constant is read or imported somewhere in
the package.

`__init__.py` is skipped as an importer and as a definer: its imports are the
package's re-exports, and they count as reads of the names they export.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chowobstruct"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level names defined in one of the sources and never read or imported in any."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        if module != "__init__":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((module, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == ["os", "a"]


def test_every_imported_name_is_read():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unread_definitions_are_found():
    sources = {
        "a": "X = 1\nY: int = 2\ndef f():\n    return X\nclass C:\n    def m(self):\n        pass\n",
        "b": "from .a import C\n",
        "__init__": "__version__ = '0'\n",
    }
    assert unread_definitions(sources) == ["a.Y", "a.f"]


def test_every_definition_is_read_or_imported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "__init__" in sources
    assert unread_definitions(sources) == []
