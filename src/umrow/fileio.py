"""JSON file formats: algebra descriptions, row bundles and certificates.

Algebra description::

    {"field": "Q" | {"Fp": p}, "vars": [names], "relations": [poly strings]}

Row bundle::

    {"algebra": <path or inline description>, "rows": {name: [poly strings]}}

Elementary words serialize as {"n": n, "gens": [[i, j, "lambda"], ...]} with
1-based indices.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra
from .errors import ConfigError, DivisionByZero, ExponentOverflow, ParseError, ShapeError, UmrowError
from .fields import RATIONALS, FieldConfig, prime_field
from .poly import _is_int
from .rows import ElementaryGen, ElementaryWord, UnimodularRow, check_unimodular


def field_from_json(spec) -> FieldConfig:
    if isinstance(spec, str) and spec.lower() == "q":
        return RATIONALS
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        return prime_field(spec["Fp"])
    raise ConfigError(f"bad field spec {spec!r} (expected \"Q\" or {{\"Fp\": p}})")


def _strings(value, where: str) -> list:
    """``value``, if it is a JSON list of strings."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where}: expected a list of strings, got {value!r}")
    return value


def algebra_from_dict(data: dict, where: str = "<inline>") -> Algebra:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {data!r}")
    for key in ("field", "vars", "relations"):
        if key not in data:
            raise ConfigError(f"{where}: missing key {key!r}")
    field = field_from_json(data["field"])
    variables = _strings(data["vars"], f"{where}: vars")
    relations = _strings(data["relations"], f"{where}: relations")
    try:
        return Algebra(field, variables, relations)
    except (ParseError, DivisionByZero, ExponentOverflow) as exc:
        raise ConfigError(f"{where}: bad relation: {exc}") from exc


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_algebra(path) -> Algebra:
    path = Path(path)
    return algebra_from_dict(_read_json(path), str(path))


def load_rows_bundle(path):
    """Parse a bundle into (algebra, {name: verified UnimodularRow})."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict) or "algebra" not in data or "rows" not in data:
        raise ConfigError(f"{path}: bundle needs 'algebra' and 'rows' keys")
    if not isinstance(data["rows"], dict):
        raise ConfigError(f"{path}: 'rows' must map each name to a list of strings")
    spec = data["algebra"]
    if isinstance(spec, str):
        algebra = load_algebra(path.parent / spec)
    else:
        algebra = algebra_from_dict(spec, f"{path}:algebra")
    rows = {}
    for name, entry_strs in data["rows"].items():
        entry_strs = _strings(entry_strs, f"{path}: row {name!r}")
        try:
            rows[name] = check_unimodular(algebra, entry_strs)
        except UmrowError as exc:
            raise ConfigError(f"{path}: row {name!r}: {exc}") from exc
    return algebra, rows


def word_to_json(word: ElementaryWord):
    return {
        "n": word.n,
        "gens": [[g.i + 1, g.j + 1, str(g.lam)] for g in word.gens],
    }


def _integer(value, where: str) -> int:
    """``value``, if it is a JSON integer (``true`` is not one)."""
    if not _is_int(value):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def word_from_json(data, algebra: Algebra) -> ElementaryWord:
    """Parse ``word_to_json``'s format; every malformed shape is a ``ConfigError``."""
    if not (isinstance(data, dict) and "n" in data and isinstance(data.get("gens"), list)):
        raise ConfigError(f"word: expected {{\"n\": n, \"gens\": [...]}}, got {data!r}")
    gens = []
    try:
        for gen in data["gens"]:
            if not (isinstance(gen, list) and len(gen) == 3 and isinstance(gen[2], str)):
                raise ConfigError(f"word: expected a generator [i, j, \"lambda\"], got {gen!r}")
            i, j = (_integer(k, "word: generator index") for k in gen[:2])
            gens.append(ElementaryGen(i - 1, j - 1, algebra.element(gen[2])))
        return ElementaryWord(data["n"], tuple(gens))
    except (ParseError, DivisionByZero, ExponentOverflow, ShapeError) as exc:
        raise ConfigError(f"word: {exc}") from exc


def row_to_json(row: UnimodularRow):
    return [str(e) for e in row.entries]
