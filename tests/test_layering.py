"""The term format of polynomials stays private to ``poly``: only
``poly.py`` calls the ``Polynomial`` constructor on a term dict, reads the
``terms`` of a polynomial or its stored integral form (``_terms`` and
``_den``), and only ``poly.py`` and ``fields.py`` import ``operator`` or
``math``, the tools of per-term loops; only ``fields.py`` reads the
``numerator`` or ``denominator`` of a coefficient, as ``field.pair`` takes
each coefficient in, and only ``fields.py`` imports ``fractions``, so a
``Fraction`` is made only where a field value is.  A
change to how terms are stored then touches ``poly`` and ``fields`` alone."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "umrow"


def polynomial_calls(source: str) -> list:
    """Lines that call ``Polynomial`` by name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Polynomial":
                lines.append(node.lineno)
    return lines


def module_imports(names):
    """A scanner for the lines that import a module named in ``names``, or a
    name from one."""

    def scan(source: str) -> list:
        lines = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in names for m in modules):
                lines.append(node.lineno)
        return lines

    return scan


def attribute_reads(names):
    """A scanner for the lines that read an attribute named in ``names``."""

    def scan(source: str) -> list:
        return sorted({
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names
        })

    return scan


term_tool_imports = module_imports({"operator", "math"})
fraction_imports = module_imports({"fractions"})
terms_reads = attribute_reads({"terms"})
integral_form_reads = attribute_reads({"_terms", "_den"})
fraction_part_reads = attribute_reads({"numerator", "denominator"})


def offenders(scan, allowed) -> dict:
    found = {p.name: scan(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name not in allowed}
    return {name: lines for name, lines in found.items() if lines}


def test_scanners_see_what_they_guard():
    assert polynomial_calls("Polynomial(ring, {})\npoly.Polynomial(ring, t)\nring.zero()") == [1, 2]
    assert polynomial_calls("isinstance(p, Polynomial)") == []
    source = "import math\nfrom operator import add\nimport os.path as math2\nfrom .math import x"
    assert term_tool_imports(source) == [1, 2]
    source = "from fractions import Fraction\nimport fractions\nfrom .fractions import F\nimport math"
    assert fraction_imports(source) == [1, 2]
    source = "p.terms.items()\nlen(e.rep.terms)\nring.term(m, c)\nterms = p.from_terms(t)\nq.terms_of"
    assert terms_reads(source) == [1, 2]
    source = "p._terms.items()\nq._den * r._den\np.terms\n_den = 1\nself._terms_of"
    assert integral_form_reads(source) == [1, 2]
    source = "c.numerator\nf(c).denominator\ndenominator = 2\nnumerators = []\np.numerator_of"
    assert fraction_part_reads(source) == [1, 2]


def test_only_poly_builds_polynomials():
    assert SRC.joinpath("poly.py").exists()
    assert offenders(polynomial_calls, {"poly.py"}) == {}


def test_only_poly_and_fields_import_term_tools():
    assert offenders(term_tool_imports, {"poly.py", "fields.py"}) == {}


def test_only_fields_imports_fractions():
    assert offenders(fraction_imports, {"fields.py"}) == {}


def test_only_poly_reads_terms():
    assert offenders(terms_reads, {"poly.py"}) == {}


def test_only_poly_reads_the_integral_form():
    assert offenders(integral_form_reads, {"poly.py"}) == {}


def test_only_fields_reads_fraction_parts():
    assert offenders(fraction_part_reads, {"fields.py"}) == {}
