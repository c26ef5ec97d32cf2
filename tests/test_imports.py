"""No module of polyred imports a name it does not use, or a private name.

The package re-exports names only from ``__init__.py``, which is skipped.
An import line marked ``# noqa: F401`` is kept on purpose and is skipped too.
Outside ``poly.py`` no comprehension substitutes one polynomial at a time:
a batch of substitutions goes through ``poly.compose_many``, which shares
one power cache over the batch.  Nor does any module but ``poly.py`` call
``.partial``: a Jacobian matrix, or a square block of one, comes from
``poly.block_jacobian``.  The one exception is ``acceptance.py``, whose
criterion 10 takes a single gradient to check Euler's identity.

Every public top-level function or class is reached: named by a reached
top-level body of another name in ``src/polyred``, or by an identifier in
``perfbench/*.py``.  Module-level code and private names are roots.  The few
names kept for a planned caller are listed in :data:`PENDING`.

Every parameter with a default is set by some call in ``src/polyred`` or
``perfbench/*.py``; a default that no call overrides is a knob nobody turns.
The few kept for the tests are listed, with their reason, in :data:`KEPT`.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyred"
BENCH = SRC.parent.parent / "perfbench"

# Unreached names kept for the ROADMAP item that will call them; that item
# removes its entries here.
PENDING = {
    "h_recovery_check": "ROADMAP item 4",
    "transport_determinant_check": "ROADMAP item 4",
    "reduce_to_quadratic": "ROADMAP item 4",
    "enumerate_trees": "ROADMAP item 11",
    "tree_amplitude": "ROADMAP item 11",
}


# Defaults that no call in src/polyred or perfbench sets, kept for the tests.
KEPT = {
    "Q.im": "the tests write complex constants as Q(re, im)",
    "Polynomial.lift.offset": "the tests lift fixtures into a trailing block",
}


def _names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__" and \
                "# noqa: F401" not in lines[node.end_lineno - 1]:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    # a quoted annotation such as -> "Polynomial" names its types in a string
    for node in ast.walk(tree):
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in filter(None, notes):
            for const in ast.walk(note):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used |= _names(ast.parse(const.value, mode="eval"))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("_")]


def method_calls(path: Path, method: str) -> list[str]:
    """Every call of ``.<method>(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method]


def method_comprehensions(path: Path, method: str) -> list[str]:
    """Comprehensions whose element calls ``.<method>(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == method for call in ast.walk(node.elt))]


def unreached(src: Path, bench: Path) -> list[str]:
    """Public top-level functions and classes of ``src`` that nothing reaches.

    Inside ``src`` a name is used as a bare name or as ``module.name`` of one
    of its modules.  In ``bench`` any name, attribute or dotted string such as
    ``"PolyMatrix.det"`` counts.  Reach spreads to a fixed point, so a helper
    that only an unreached name calls is unreached too.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}

    def used(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
            {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in trees}

    public, named = {}, set()
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    not stmt.name.startswith("_"):
                public[stmt.name] = stmt
            else:
                named |= used(stmt)
    for path in bench.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and \
                    re.fullmatch(r"[\w.]+", n.value):
                named |= set(n.value.split("."))
    reached: set[str] = set()
    while todo := (named & public.keys()) - reached:
        for name in todo:
            reached.add(name)
            named |= used(public[name])
    return sorted(public.keys() - reached)


def unset_defaults(src: Path, bench: Path) -> list[str]:
    """``Function.param`` for every defaulted parameter in ``src`` that no call sets.

    Calls are matched by the called name alone, ``f(...)`` or ``x.f(...)``,
    from ``src`` and ``bench``; a class's ``__init__`` is called by the class
    name, and a leading ``self`` or ``cls`` takes no position.  A call sets
    the parameters it passes by keyword and those its positional arguments
    reach; one with ``*args`` or ``**kwargs`` sets them all.
    """
    defs: list[tuple[str, str, ast.arguments]] = []

    def collect(node, prefix: str, owner: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_init = owner is not None and child.name == "__init__"
                qual = prefix if is_init else f"{prefix}{child.name}."
                defs.append((owner if is_init else child.name, qual, child.args))
                collect(child, qual, None)
            else:
                collect(child, prefix, owner)

    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == src:
            collect(tree, "", None)
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)

    unset = []
    for called, qual, args in defs:
        positional = args.posonlyargs + args.args
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        defaulted = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for name, pos in defaulted:
            if not any(_sets(call, name, pos) for call in calls.get(called, ())):
                unset.append(f"{qual}{name}")
    return sorted(unset)


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether ``call`` sets the parameter ``name`` at position ``pos`` (None: keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or \
        (pos is not None and len(call.args) > pos)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def test_the_checker_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import json\nimport os  # noqa: F401\nfrom math import pi, tau\n\n"
                   "def f(x: \"list[Sequence]\") -> \"json\":\n"
                   "    return pi, 'tau'\n", encoding="utf-8")
    assert unused_imports(mod) == ["mod.py:3 tau"]


def test_no_private_imports():
    assert [u for p in sorted(SRC.glob("*.py")) for u in private_imports(p)] == []


def test_substitutions_go_through_compose_many():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "poly.py")
    assert [c for p in modules for c in method_comprehensions(p, "compose")] == []


def test_jacobians_go_through_block_jacobian():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in ("poly.py", "acceptance.py"))
    assert [c for p in modules for c in method_calls(p, "partial")] == []


def test_the_checkers_find_private_imports_and_compose_loops(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .poly import _cache, compose_many\n"
                   "a = [p.compose(t) for p in ps]\n"
                   "b = sum(x + q.compose(t, 2) for q in qs)\n"
                   "c = {p.compose(t) for p in ps}\n"
                   "d = compose_many(ps, t)\n"
                   "e = p.compose(t)\n"
                   "f = [[F[j].partial(i) for j in r] for i in r]\n"
                   "g = F[0].partial(1)\n"
                   "h = is_j_partial(F, 1)\n", encoding="utf-8")
    assert private_imports(mod) == ["mod.py:1 _cache"]
    assert sorted(method_comprehensions(mod, "compose")) == ["mod.py:2", "mod.py:3", "mod.py:4"]
    assert sorted(method_calls(mod, "partial")) == ["mod.py:7", "mod.py:8"]


def test_every_public_name_is_reached():
    assert unreached(SRC, BENCH) == sorted(PENDING)


def test_the_checker_finds_unreached_names(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import dead, Kept\n", encoding="utf-8")
    (src / "a.py").write_text(
        "TABLE = [root]\n\n"
        "def root(): return b.helper()\n\n"
        "def dead(): return only_dead() + dead()\n\n"
        "def only_dead(): return 0\n\n"
        "def _private(): return via_private\n\n"
        "def via_private(): return 0\n\n"
        "class Kept: pass\n\n"
        "def benched(): return 0\n", encoding="utf-8")
    (src / "b.py").write_text("def helper(): return x.split()\n\n"
                              "def split(): return 0\n", encoding="utf-8")
    (bench / "t.py").write_text("TARGETS = [(\"a\", \"benched\")]\nlib.a.Kept\n",
                                encoding="utf-8")
    assert unreached(src, bench) == ["dead", "only_dead", "split"]


def test_every_default_parameter_is_set():
    assert unset_defaults(SRC, BENCH) == sorted(KEPT)


def test_the_checker_finds_unset_defaults(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def f(x, by_kw=0, by_pos=0, unset=0, *, kw_only=1, kw_unset=1):\n"
        "    def inner(y, deep=0): return y\n"
        "    return inner(x)\n\n"
        "def g(a=0, b=0): return 0\n\n"
        "def h(a=0): return 0\n\n"
        "class C:\n"
        "    def __init__(self, p, q=None): pass\n\n"
        "    def m(self, r=1, s=2): return C(r)\n\n"
        "    @staticmethod\n"
        "    def s(t=0): return 0\n\n"
        "f(1, 2, 3, by_kw=4, kw_only=5)\n"
        "g(*ARGS)\n"
        "C(1).m(2)\n", encoding="utf-8")
    (bench / "t.py").write_text("lib.a.h(**OPTS)\nlib.a.C.s(0)\n", encoding="utf-8")
    assert unset_defaults(src, bench) == ["C.m.s", "C.q", "f.inner.deep", "f.kw_unset", "f.unset"]
