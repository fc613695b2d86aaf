"""Checks on the source of the package itself, read with ast."""

import ast
import pathlib

import affschur

SRC = pathlib.Path(affschur.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: pathlib.Path) -> list[str]:
    """Each line of a module that reads a private name of another module:
    module._name for a module it imports, or from module import _name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import hecke: the names are modules
                modules.update(a.asname or a.name for a in node.names)
            source = "." * node.level + (node.module or "")
            found += [(node.lineno, f"from {source} import {a.name}")
                      for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{path.name}:{line}: {text}" for line, text in sorted(found)]


def test_no_module_reads_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 12
    assert [line for path in paths for line in _private_reads(path)] == []


def test_private_reads_are_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import hecke\nfrom .schur import _MAX_TERMS, g_struct\n"
                    "import json as j\nm = hecke._Memo(len)\nk = hecke.__name__\n"
                    "d = j._default_decoder\n", encoding="utf-8")
    assert _private_reads(path) == ["probe.py:2: from .schur import _MAX_TERMS",
                                    "probe.py:4: hecke._Memo", "probe.py:6: j._default_decoder"]
