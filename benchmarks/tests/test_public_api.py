"""The benchmark drives umrow only through public names, so refactors of
umrow's internals cannot silently change what is measured."""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent


def private_umrow_names(source: str):
    """Underscore names the source imports from umrow or reaches through an
    imported umrow module."""
    found = []
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "umrow":
            parts = node.module.split(".")
            found += [node.module for p in parts if p.startswith("_")]
            found += [a.name for a in node.names if a.name.startswith("_")]
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "umrow":
                    found += [a.name for p in a.name.split(".") if p.startswith("_")]
                    modules.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_benchmark_imports_no_private_umrow_name():
    sources = sorted(BENCH.rglob("*.py"))
    assert sources
    offenders = {str(p.relative_to(BENCH)): private_umrow_names(p.read_text()) for p in sources}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_guard_catches_private_imports():
    assert private_umrow_names("from umrow.groebner import _reduce") == ["_reduce"]
    assert private_umrow_names("from umrow._x import y") == ["umrow._x"]
    assert private_umrow_names("import umrow.groebner as g\ng._cached_basis") == ["g._cached_basis"]
    assert private_umrow_names("from umrow import groebner\ngroebner._reduce(1)") == ["groebner._reduce"]
    assert private_umrow_names("from umrow import buchberger") == []
