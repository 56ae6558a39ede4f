"""Every name a module imports is read somewhere in that module, every
module-level function, class and constant is read or imported somewhere in
the package, and no class writes its own __setattr__, __delattr__, __eq__ or
__hash__: immutable value types are frozen dataclasses.  No dataclass passes
slots: under slots=True the generated __setattr__ and __delattr__ of a frozen
class raise TypeError, not FrozenInstanceError, for a name that is not a field.
No function fills in a parameter left as None (`if p is None: p = ...`): a
default the caller cannot see is a policy written twice.  No call's callee is
itself a call to a package function (`make(x)(y)`): a factory whose result is
called once on the spot is one function split in two.  Every name in the
package's __all__ is read somewhere in the package outside `__init__.py`,
or HELD says what holds it in place: an export that no code calls is API
kept for readers, and each such choice is written down once.

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


def unread_exports(sources: dict[str, str]) -> list[str]:
    """The names in the `__init__` source's __all__ that no other source reads."""
    exported = []
    for node in ast.parse(sources["__init__"]).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = ast.literal_eval(node.value)
    read = {
        node.id
        for module, source in sources.items()
        if module != "__init__"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in exported if name not in read]


# Exports that no code in the package calls, with what holds each in place.
HELD = {
    "classify_all": "the library form of `classify`: the README names it, and acceptance criteria 5 and 6 run it",
    "sq2_descends": "the executable check that Sq^2 respects the degree-2 relations: acceptance criterion 8 runs it",
}


HAND_WRITTEN = {"__setattr__", "__delattr__", "__eq__", "__hash__"}


def hand_written_dunders(source: str) -> list[str]:
    """Class.name for every class body that defines or assigns one of HAND_WRITTEN."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names if name in HAND_WRITTEN]
    return found


def slotted_dataclasses(source: str) -> list[str]:
    """Every class whose @dataclass(...) or @dataclasses.dataclass(...) decorator
    passes slots; False is the default, so any value but True is noise."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            func = deco.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "dataclass" and any(kw.arg == "slots" for kw in deco.keywords):
                found.append(node.name)
    return found


def sentinel_defaults(source: str) -> list[str]:
    """function.parameter for every `if P is None: P = ...` directly in a
    function body, with a one-statement body, no else, and P a parameter of
    that function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        for stmt in node.body:
            if not (isinstance(stmt, ast.If) and len(stmt.body) == 1 and not stmt.orelse):
                continue
            assign = stmt.body[0]
            targets = [ast.unparse(t) for t in assign.targets] if isinstance(assign, ast.Assign) else []
            found += [
                f"{node.name}.{p}" for p in targets if p in params and ast.unparse(stmt.test) == f"{p} is None"
            ]
    return found


def immediately_called_factories(source: str) -> list[str]:
    """line:name for every call whose callee is a call to `name`, a function
    defined in the source or imported from a module of the package (a
    relative import); methods count by name, through any attribute."""
    tree = ast.parse(source)
    package = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update(alias.asname or alias.name for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Call)):
            continue
        inner = node.func.func
        name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
        if name in package:
            found.append((node.lineno, name))
    return [f"{line}:{name}" for line, name in sorted(found)]


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


def test_unread_exports_are_found():
    sources = {
        "a": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n",
        "b": "from .a import h\n",
        "__init__": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\nf()\n",
    }
    assert unread_exports(sources) == ["f", "h"]


def test_every_export_is_read_or_held():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unread_exports(sources)) == sorted(HELD)


def test_hand_written_dunders_are_found():
    source = (
        "class A:\n    def __eq__(self, other):\n        return True\n    def __repr__(self):\n        return ''\n"
        "class B:\n    __hash__ = None\n    class C:\n        def __setattr__(self, n, v):\n            pass\n"
        "def __delattr__(self, name):\n    pass\n"
    )
    assert hand_written_dunders(source) == ["A.__eq__", "B.__hash__", "C.__setattr__"]


def test_no_class_writes_its_own_setattr_delattr_eq_or_hash():
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := hand_written_dunders(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_slotted_dataclasses_are_found():
    source = (
        "@dataclass(frozen=True, slots=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(slots=True)\nclass B:\n    x: int\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n"
        "@dataclass\nclass D:\n    x: int\n"
        "@other(slots=True)\nclass E:\n    x: int\n"
    )
    assert slotted_dataclasses(source) == ["A", "B"]


def test_no_dataclass_passes_slots():
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := slotted_dataclasses(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_sentinel_defaults_are_found():
    source = (
        "def f(a, b=None, *, c=None):\n"
        "    if b is None:\n        b = 1\n"
        "    if c is None:\n        c = 2\n        c += 1\n"
        "    if a is None:\n        a = 3\n    else:\n        a = 4\n"
        "    d = None\n    if d is None:\n        d = 5\n"
        "    return a if a is not None else b\n"
        "class K:\n    def m(self, x=None):\n        if x is None:\n            x = []\n"
    )
    assert sentinel_defaults(source) == ["f.b", "m.x"]


def test_no_function_fills_in_a_parameter_left_as_none():
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := sentinel_defaults(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_immediately_called_factories_are_found():
    source = (
        "from .m import make\nfrom os import path\n"
        "def build(a):\n    def inner(b):\n        return a + b\n    return inner\n"
        "class K:\n    def rule(self):\n        return len\n"
        "x = build(1)(2)\n"
        "y = make()(3)\n"
        "z = K().rule()(4)\n"
        "w = path.join('a')('b')\n"
        "v = sorted(build(1))\n"
        "u = (lambda: len)()('s')\n"
    )
    assert immediately_called_factories(source) == ["10:build", "11:make", "12:rule"]


def test_no_factory_is_called_once_on_the_spot():
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := immediately_called_factories(p.read_text(encoding="utf-8")))
    }
    assert found == {}
