"""No code in ``src/greenbox`` without a caller there.

An ``ast`` scan of every module: each function, class and method must be
referenced somewhere in ``src/greenbox`` outside its own definition, be
imported by ``greenbox/__init__.py``, or be on ``ALLOWLIST`` with the
reason it stays.  Dunders are exempt.  References are matched by name
(``Name`` ids and ``Attribute`` attrs), so a method counts as called when
any attribute of that name is read.  Helpers that only the tests call
belong in ``tests/reference.py``.

A second scan fails on any name that a module other than ``__init__``
imports but never reads, such as an ``import copy`` left behind when its
last use goes.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "greenbox"

ALLOWLIST = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "fields.ExtensionField.gen": "the generator t of F_p[t]/(f), public "
                                 "for writing F_{p^k} scalars by hand",
    "mackey.MackeyMorphism.is_isomorphism": "used by "
                                            "demos/eigenspace_decomposition.py",
}


def _definitions(module, tree):
    """(qualified name, bare name, node) of each module-level function and
    class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield f"{module}.{node.name}.{child.name}", child.name, \
                        child


def _scan():
    """The definitions, the references as (module, line, name), and the
    names ``__init__`` imports."""
    defs, refs, exported = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        defs += [(module, *d) for d in _definitions(module, tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and module == "__init__":
                exported |= {alias.name for alias in node.names}
    return defs, refs, exported


def _uncalled():
    defs, refs, exported = _scan()
    out = []
    for module, qual, name, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in exported or qual in ALLOWLIST:
            continue
        if not any(ref == name and not (
                mod == module and node.lineno <= line <= node.end_lineno)
                for mod, line, ref in refs):
            out.append(qual)
    return out


def test_every_definition_in_src_has_a_caller_in_src():
    assert _uncalled() == []


def test_every_allowlist_entry_is_still_needed():
    defs, refs, exported = _scan()
    quals = {qual for _, qual, _, _ in defs}
    assert set(ALLOWLIST) <= quals
    saved = dict(ALLOWLIST)
    try:
        ALLOWLIST.clear()
        assert sorted(_uncalled()) == sorted(saved)
    finally:
        ALLOWLIST.update(saved)


def _unread_imports(tree) -> list:
    """The names a module imports, ``__future__`` features aside, that no
    ``Name`` in it reads."""
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_every_import_in_src_is_read():
    unread = {path.stem: _unread_imports(
        ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    assert {module: names for module, names in unread.items() if names} \
        == {}


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import copy\nimport os.path\nimport math\n"
              "from .linalg import Mat, rref as echelon\n"
              "def f(v):\n    return Mat(math.gcd(*v), os.path)\n")
    assert _unread_imports(ast.parse(source)) == ["copy", "echelon"]
