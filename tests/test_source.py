"""Static checks of the package source: every parameter a function takes is
read somewhere in its body, every constant and config field of
``config.py`` is read by another module of the package, and every
upper-case module-level constant of any module is read by some module.  No
module derives a parameter set from ``config.DEFAULTS`` by ``replace``, and only
``world.py`` divides by the lane width."""

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


def config_names(source: str) -> list[str]:
    """The module-level constants of a config source, and the fields of its
    dataclasses."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            names += [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
    return names


def names_read(sources) -> set[str]:
    """Every name the sources load, as a bare name, an attribute or an import."""
    read = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return read


def config_reads(sources) -> set[str]:
    """Every name the sources read as an attribute (``config.DT``,
    ``w.w_s``) or import from ``.config``; a bare local of the same name is
    not a reader."""
    read = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module == "config":
                read.update(a.name for a in n.names)
    return read


def test_config_scan_sees_only_unread_names():
    source = ("X = 1\nY: int = 2\n@dataclass(frozen=True)\nclass C:\n    a: float = 1.0\n"
              "    def f(self):\n        return self.a\nclass Plain:\n    b = 1\n")
    assert config_names(source) == ["X", "Y", "a"]
    assert names_read(["from .config import X\nv = cfg.a\nY = 1\n"]) == {"X", "a", "cfg"}
    assert config_reads(["from .config import X\nfrom .world import Z\nv = cfg.a\n"
                         "w = Y + b\nb = 1\n"]) == {"X", "a"}


def test_every_config_name_is_read_elsewhere():
    """Every module-level constant and every config field of ``config.py``
    has a reader in another module of the package: one that is read only
    where it is defined, or not at all, is dead weight in the one place
    every tunable lives."""
    others = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "config.py"]
    read = config_reads(others)
    assert [n for n in config_names((PACKAGE / "config.py").read_text()) if n not in read] == []


def module_constants(source: str) -> list[str]:
    """The upper-case names a source assigns at module level."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def test_constant_scan_sees_only_upper_case_module_names():
    source = ("A = 1\n_B_C: int = 2\nlower = 3\nMixed = 4\n"
              "def f():\n    G = 7\nclass K:\n    H = 8\n")
    assert module_constants(source) == ["A", "_B_C"]


def test_every_module_constant_is_read():
    """An upper-case module-level constant that no module of the package
    reads, its own included, is dead code."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    read = names_read(sources.values())
    assert [f"{name} {c}" for name, source in sources.items()
            for c in module_constants(source) if c not in read] == []


def defaults_replacements(source: str) -> list[str]:
    """``line call`` for every ``replace(...)`` (bare or ``dataclasses.``)
    whose first argument reads ``DEFAULTS``: a second parameter set derived
    from the one defaults object."""
    return [f"{n.lineno} {ast.unparse(n)}" for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and n.args
            and (getattr(n.func, "id", None) == "replace"
                 or getattr(n.func, "attr", None) == "replace")
            and any(getattr(a, "id", None) == "DEFAULTS" or getattr(a, "attr", None) == "DEFAULTS"
                    for a in ast.walk(n.args[0]))]


def test_defaults_scan_sees_only_replaced_defaults():
    source = ("p = replace(config.DEFAULTS.pdi, d_norm=1.0)\n"
              "q = dataclasses.replace(DEFAULTS.game, w_e=2.0)\n"
              "r = replace(params, d_norm=1.0)\n"
              "s = pose._replace(x=config.DEFAULTS.pdi.d_norm)\n"
              "t = name.replace('a', 'b')\n")
    assert defaults_replacements(source) == [
        "1 replace(config.DEFAULTS.pdi, d_norm=1.0)",
        "2 dataclasses.replace(DEFAULTS.game, w_e=2.0)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_derives_a_parameter_set_from_the_defaults(path):
    """Every layer reads each ``config.DEFAULTS`` member as it stands, so two
    layers never see one quantity under two parameter sets."""
    assert defaults_replacements(path.read_text()) == []


def lane_width_divisions(source: str) -> list[str]:
    """``line expression`` for every division by a ``lane_width``, bare or
    as an attribute."""
    return [f"{n.lineno} {ast.unparse(n)}" for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Div, ast.FloorDiv))
            and "lane_width" in (getattr(n.right, "id", None), getattr(n.right, "attr", None))]


def test_lane_width_scan_sees_only_divisions():
    source = ("a = y / road.lane_width\n"
              "b = round(y // lane_width)\n"
              "c = lane * road.lane_width\n"
              "d = road.lane_width / 2.0\n")
    assert lane_width_divisions(source) == ["1 y / road.lane_width", "2 y // lane_width"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "world.py"),
                         ids=lambda p: p.name)
def test_only_the_road_maps_a_position_to_a_lane(path):
    """``RoadMap.lane_index`` is the one lane-index formula: no other module
    divides by the lane width."""
    assert lane_width_divisions(path.read_text()) == []
