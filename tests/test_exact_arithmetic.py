"""The package computes with ints and Fractions only: no float enters ``src/depthforge``.

Each module is parsed, and a float (or complex) literal, a call to ``float``,
or a ``math`` function outside the integer ones in ``INTEGER_MATH`` is named
with its file and line, whether it is reached as ``math.x``, through an alias
of ``math`` or by ``from math import x``.

Rationals become integers over a common denominator in one place,
``exactla._integers``, so no other module names ``lcm``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "depthforge"

INTEGER_MATH = {"comb", "gcd", "isqrt", "lcm", "prod"}


def _inexact(tree: ast.AST) -> list[tuple[int, str]]:
    imports = [a for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    aliases = {a.asname or a.name for a in imports if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "call to float"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr not in INTEGER_MATH:
                found.append((node.lineno, "math.%s" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "from math import %s" % a.name) for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_no_float_arithmetic_in_the_package():
    found = [
        "%s:%d: %s" % (path.name, line, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _inexact(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_each_form():
    source = "import math as m\nfrom math import log, gcd\nx = 1e-12\ny = float(2)\nz = m.pi + m.comb(4, 2)\nw = 2j\n"
    assert [what for _, what in sorted(_inexact(ast.parse(source)))] == [
        "from math import log",
        "literal 1e-12",
        "call to float",
        "math.pi",
        "literal 2j",
    ]


def _names_lcm(tree: ast.AST) -> list[int]:
    """The lines that name ``lcm``: as a name, an attribute or an import."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "lcm")
            or (isinstance(node, ast.Attribute) and node.attr == "lcm")
            or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.rpartition(".")[2] == "lcm" for a in node.names))
        }
    )


def test_only_exactla_names_lcm():
    names = {path.name: _names_lcm(ast.parse(path.read_text(), str(path))) for path in sorted(PACKAGE.glob("*.py"))}
    assert names.pop("exactla.py")  # the one place, so the check below is not vacuous
    assert ["%s:%d" % (name, line) for name, lines in names.items() for line in lines] == []


def test_the_lcm_check_sees_each_form():
    source = "import math as m\nfrom math import lcm as l\nx = m.lcm(2, 3)\ny = lcm(4)\nz = 'lcm'\n"
    assert _names_lcm(ast.parse(source)) == [2, 3, 4]
