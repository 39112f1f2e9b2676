"""Static checks of the package source: every parameter a function takes is
read somewhere in its body."""

import ast
from pathlib import Path

import pytest

from platoonreorg import episode

PACKAGE = Path(episode.__file__).resolve().parent


def unread_parameters(source: str) -> list[str]:
    """``line name(param)`` for every parameter other than ``self`` and ``cls``
    that its function never reads, nested functions and lambdas included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{node.lineno} {name}({a.arg})" for a in params
                  if a.arg not in ("self", "cls") and a.arg not in read]
    return found


def test_scan_sees_only_unread_parameters():
    source = ("def f(a, b, *args, c, **kw):\n"
              "    return a + (lambda x, y: x)(c, 0)\n"
              "class K:\n"
              "    def m(self, d):\n"
              "        def inner():\n"
              "            return d\n"
              "        return inner\n")
    assert unread_parameters(source) == ["1 f(b)", "1 f(args)", "1 f(kw)", "2 <lambda>(y)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []
