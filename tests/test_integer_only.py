"""The library computes on ints alone: no float literal, no true
division and no call to float anywhere in its code.

A float rounds past 2^53 and overflows past about 10^308, so one float
in a sizing or decode path caps the lattices the library can serve.
Docstrings and f-string text are strings, not code, so they may say
anything."""

import ast
from pathlib import Path

import latticeobs

SOURCES = sorted(Path(latticeobs.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST):
    """(line, what) for each float literal, `/`, `/=` and float(...) call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "call to float"


def test_the_guard_sees_each_float_use_and_no_text():
    src = '''
"""Docstring: n ** (1.0 / k), float(x)."""
a = 1.5
b = 2j
c = a / b
c /= 2
d = float("3")
e = f"{a} / {b} = 0.5"
f = a // 2
'''
    assert sorted(float_uses(ast.parse(src))) == [
        (3, "float literal 1.5"),
        (4, "float literal 2j"),
        (5, "true division"),
        (6, "true division"),
        (7, "call to float"),
    ]


def test_library_uses_no_float():
    assert {"cli.py", "decoder.py", "gfpoly.py"} <= {path.name for path in SOURCES}
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
