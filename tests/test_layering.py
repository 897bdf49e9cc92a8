"""The term format of polynomials stays private to ``poly``: only
``poly.py`` calls the ``Polynomial`` constructor on a term dict, reads the
``terms`` of a polynomial or its stored integral form (``_terms`` and
``_den``), and only ``poly.py`` and ``fields.py`` import ``operator`` or
``math``, the tools of per-term loops; only ``fields.py`` reads the
``numerator`` or ``denominator`` of a coefficient, as ``field.pair`` takes
each coefficient in, and only ``fields.py`` imports ``fractions``, so a
``Fraction`` is made only where a field value is.  A
change to how terms are stored then touches ``poly`` and ``fields`` alone.
``rows.py`` imports nothing from ``groebner``: ``Algebra`` reads every Bezout
certificate a row needs.  ``cli.py`` and ``fileio.py`` read no ``rep``: they
print an element with ``str``, so ``AlgebraElement.__str__`` alone decides
its text.  A ``SplittingRow`` is made past the sum check of its
``__post_init__`` (by ``object.__new__`` and ``object.__setattr__``) only in
``rows._product_splitting``, whose factored identity certifies it; outside
it no module sets a field of anything but ``self`` that way, so no second
unchecked path can appear unseen.  Graded reverse lex is the one term
order: no function has a parameter ``order`` but ``Polynomial.lead``, which
takes only its ring's own, and nothing named ``Lex``, ``lex``,
``MonomialOrder`` or ``check_order`` is defined.  Only ``poly.py`` defines
``_listed``, the one rule for list arguments."""

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


def package_imports(name: str):
    """A scanner for the lines that import the package module ``name``, or a
    name from it, relatively or as ``umrow.<name>``."""

    def scan(source: str) -> list:
        lines = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == name for m in modules):
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


BYPASS = {"__new__", "__setattr__"}


def bypass_calls(source: str) -> list:
    """(line, enclosing function, target) of each call that makes or sets an
    object past its constructor: ``__new__`` or ``__setattr__`` called as an
    attribute, or through a name bound to one; the target is the text of
    the first argument."""
    tree = ast.parse(source)
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
        and node.value.attr in BYPASS
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and child.args:
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BYPASS or name in aliases:
                    kind = name if name in BYPASS else "__new__"
                    found.append((child.lineno, function, kind, ast.unparse(child.args[0])))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


def unchecked_builds(source: str, module: str) -> list:
    """(line, function) of each call that could make a ``SplittingRow`` past
    its check: in ``rows.py`` any bypass call, elsewhere a ``__new__`` of a
    ``SplittingRow`` or a ``__setattr__`` on anything but ``self``."""
    return [
        (line, function)
        for line, function, kind, target in bypass_calls(source)
        if module == "rows.py"
        or (kind == "__new__" and target.split(".")[-1] == "SplittingRow")
        or (kind == "__setattr__" and target != "self")
    ]


def order_parameters(source: str) -> list:
    """(line, qualified name) of each function or lambda with a parameter
    called ``order``; a method is named ``Class.method``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "<lambda>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if "order" in [a.arg for a in params if a]:
                    found.append((child.lineno, prefix + name))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def definitions(*names):
    """A scanner for the lines that define a function or a class called one
    of ``names``."""

    def scan(source: str) -> list:
        return sorted(
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in names
        )

    return scan


listed_definitions = definitions("_listed")
order_definitions = definitions("Lex", "lex", "MonomialOrder", "check_order")
term_tool_imports = module_imports({"operator", "math"})
fraction_imports = module_imports({"fractions"})
groebner_imports = package_imports("groebner")
terms_reads = attribute_reads({"terms"})
integral_form_reads = attribute_reads({"_terms", "_den"})
fraction_part_reads = attribute_reads({"numerator", "denominator"})
rep_reads = attribute_reads({"rep"})


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
    source = "from .groebner import Ideal\nfrom . import groebner\nimport umrow.groebner\nfrom .rows import groebner_basis"
    assert groebner_imports(source) == [1, 2, 3]
    source = "p.terms.items()\nlen(e.rep.terms)\nring.term(m, c)\nterms = p.from_terms(t)\nq.terms_of"
    assert terms_reads(source) == [1, 2]
    source = "p._terms.items()\nq._den * r._den\np.terms\n_den = 1\nself._terms_of"
    assert integral_form_reads(source) == [1, 2]
    source = "c.numerator\nf(c).denominator\ndenominator = 2\nnumerators = []\np.numerator_of"
    assert fraction_part_reads(source) == [1, 2]
    source = "str(e.rep)\n[str(g.lam.rep) for g in w]\nrep = 1\nstr(e)\nx.representative"
    assert rep_reads(source) == [1, 2]
    source = (
        "_new = object.__new__\n"
        "def f():\n    s = _new(Scalar)\n    t = object.__new__(rows.SplittingRow)\n"
        "    object.__setattr__(t, 'row', r)\n"
        "class C:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"
    )
    assert [line for line, _ in unchecked_builds(source, "quadrics.py")] == [4, 5]
    assert unchecked_builds(source, "rows.py") == [(3, "f"), (4, "f"), (5, "f"), (8, "__post_init__")]
    source = (
        "def f(order):\n    pass\nclass Polynomial:\n    def lead(self, order=None):\n"
        "        return lambda *, order: order\ndef g(x, /, order):\n    pass\n"
        "def h(border, orders):\n    return x.order\ndef k(*order):\n    pass\n"
    )
    assert order_parameters(source) == [
        (1, "f"), (4, "Polynomial.lead"), (5, "Polynomial.lead.<lambda>"), (6, "g"), (10, "k")
    ]
    source = (
        "class Lex:\n    pass\ndef lex(n):\n    pass\nclass R:\n    def check_order(self):\n"
        "        pass\nclass MonomialOrder(X):\n    pass\nlexical = lex(2)\ndef grevlex(n):\n    pass\n"
    )
    assert order_definitions(source) == [1, 3, 6, 8]
    source = "def _listed(v):\n    pass\nclass C:\n    def _listed(self):\n        pass\n_listed(x)"
    assert listed_definitions(source) == [1, 4]


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


def test_rows_imports_nothing_from_groebner():
    assert groebner_imports(SRC.joinpath("rows.py").read_text()) == []


def test_cli_and_fileio_read_no_rep():
    for name in ("cli.py", "fileio.py"):
        assert rep_reads(SRC.joinpath(name).read_text()) == [], name


def test_only_the_product_constructor_skips_the_splitting_check():
    builds = {p.name: unchecked_builds(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
    rows_builds = builds.pop("rows.py")
    assert rows_builds and {function for _, function in rows_builds} == {"_product_splitting"}
    assert {name: lines for name, lines in builds.items() if lines} == {}


def test_only_lead_takes_an_order():
    found = {p.name: [f for _, f in order_parameters(p.read_text())] for p in sorted(SRC.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {"poly.py": ["Polynomial.lead"]}
    assert offenders(order_definitions, set()) == {}


def test_only_poly_defines_the_list_rule():
    assert listed_definitions(SRC.joinpath("poly.py").read_text())
    assert offenders(listed_definitions, {"poly.py"}) == {}
