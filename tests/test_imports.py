"""Every name a module of the package imports is used in that module, the
package starts up without the modules that generate code or inspect it,
every top-level name of the package is reached from the command line,
every method of a package class is read in the package and does more
than forward its arguments to a method of an attribute, every field of a
package class is read somewhere, and no memo or ``global`` but the listed
ones outlives a call."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thrcalc"
# Modules that ``import thrcalc.cli`` must not load: ``dataclasses`` costs
# about 1 ms per record to generate its methods and pulls in ``inspect``.
STARTUP_HEAVY = {"dataclasses", "inspect"}


def unused_imports(source):
    """The names ``source`` imports (``__future__`` aside) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(os.sep, gcd(4, 6))\n"
    assert unused_imports(source) == ["comb"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(tree):
    """The modules imported anywhere in the syntax tree ``tree``;
    ``from .x import y`` counts as ``x``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def nested_imports(source):
    """The modules ``source`` imports inside a function."""
    return set().union(*(imported_modules(node) for node in ast.walk(ast.parse(source))
                         if isinstance(node, ast.FunctionDef)))


def test_the_scans_find_an_import():
    source = ("import dataclasses as dc\nfrom typing import NamedTuple\n\n"
              "def load():\n    if True:\n        import yaml\n")
    assert imported_modules(ast.parse(source)) == {"dataclasses", "typing", "yaml"}
    assert nested_imports(source) == {"yaml"}


def test_no_module_imports_a_startup_heavy_module():
    heavy = {path.name: imported_modules(ast.parse(path.read_text())) & STARTUP_HEAVY
             for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in heavy.items() if found} == {}


def test_only_the_yaml_parser_is_imported_inside_a_function():
    # PyYAML is read only by ``load_description``; any other import is paid
    # once at start-up rather than moved into the first command
    assert set().union(*(nested_imports(path.read_text())
                         for path in PACKAGE.glob("*.py"))) == {"yaml"}


def test_importing_the_cli_adds_no_startup_heavy_module():
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "bare = set(sys.modules)\n"
            "import thrcalc.cli\n"
            "print(*sorted(set(sys.modules) - bare))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    added = set(run.stdout.split())
    assert "thrcalc.cli" in added
    assert added & STARTUP_HEAVY == set()


def test_importing_the_cli_builds_no_parser():
    # ``main`` builds the parser on its first call, so set-up pays only
    # the import
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import thrcalc.cli\n"
            "print(thrcalc.cli.build_parser.cache_info().currsize)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["0"]


def _relative_imports(nodes):
    """``{local name: (module, name)}`` for the ``from .module import name``
    statements among ``nodes``; ``from . import module`` maps the module's
    local name to ``(module, None)``."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                out[a.asname or a.name] = (node.module, a.name) if node.module else (a.name, None)
    return out


def unreached(sources):
    """The top-level names of the modules in ``sources`` (``{module name:
    source}``), public and private but not dunders such as ``__version__``,
    that nothing reaches from ``cli.main`` and the module-level statements
    of ``cli`` and ``selftest``.

    A reached function, class or assignment reaches the names its body
    reads, resolved through its module's own definitions and relative
    imports (those inside the body too), and ``module.name`` for a module
    imported whole.  A name the body binds itself is local and reaches
    nothing.
    """
    defs, imports, todo = {}, {}, []
    for mod, source in sources.items():
        tree = ast.parse(source)
        defs[mod], imports[mod] = {}, _relative_imports(tree.body)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    defs[mod].update((n.id, stmt) for n in ast.walk(target)
                                     if isinstance(n, ast.Name))
            if mod in ("cli", "selftest") and not isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                todo.append((mod, stmt))
    todo.append(("cli", defs["cli"]["main"]))
    reached = {("cli", "main")}
    while todo:
        mod, node = todo.pop()
        nodes = list(ast.walk(node))
        scope = {**imports[mod], **_relative_imports(nodes)}
        local = ({n.arg for n in nodes if isinstance(n, ast.arg)}
                 | {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local = set()  # a module-level statement binds module names
        local -= {name for n in nodes if isinstance(n, ast.Global) for name in n.names}
        for n in nodes:
            key = None
            if isinstance(n, ast.Name) and n.id not in local:
                key = (mod, n.id) if n.id in defs[mod] else scope.get(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                module, name = scope.get(n.value.id, (None, ""))
                key = (module, n.attr) if name is None else None
            while key and key[0] in defs and key[1] not in defs[key[0]]:
                key = imports[key[0]].get(key[1])  # a name the module imports
            if key and key[0] in defs and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key[0]][key[1]]))
    return sorted((mod, name) for mod in defs for name in defs[mod]
                  if not (name.startswith("__") and name.endswith("__"))
                  and (mod, name) not in reached)


def test_the_scan_finds_an_unreached_name():
    sources = {
        "cli": "from .lib import run\n\ndef main():\n    return run()\n",
        "lib": ("def run():\n    image = 1\n    return helper(image)\n\n"
                "def helper(x):\n    return x\n\n"
                "def image():\n    return 0\n\n"
                "def _private():\n    return 0\n\n"
                "__version__ = '1'\n"),
    }
    # ``run``'s local ``image`` is not the module's ``image``; a private
    # name counts, a dunder does not
    assert unreached(sources) == [("lib", "_private"), ("lib", "image")]


def test_every_public_name_is_reached_from_the_cli_or_selftest():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreached(sources) == []


# Methods that only the tests read, each with its reason.
UNREAD_METHODS = {
    # the tests pin laziness through it, and a tracer of the nerve stages
    # is to read it
    "SimplexLevels.built",
}


def unread_methods(package):
    """``Class.method`` for every method of the classes in the ``package``
    sources, dunders aside, that no source in ``package`` reads as an
    attribute; the match is by name alone."""
    trees = [ast.parse(source) for source in package]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{cls.name}.{f.name}" for tree in trees for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  for f in cls.body if isinstance(f, ast.FunctionDef)
                  and not (f.name.startswith("__") and f.name.endswith("__"))
                  and f.name not in read)


def test_the_scan_finds_an_unread_method():
    package = ("class Ring:\n    def mul(self, x, y):\n        return x * y\n\n"
               "    def square(self, x):\n        return self.mul(x, x)\n\n"
               "    def __repr__(self):\n        return 'Ring'\n\n"
               "    @property\n    def size(self):\n        return 0\n\n"
               "def order(ring):\n    return ring.size\n")
    # ``mul`` is read by ``square``, ``size`` by ``order``; a dunder does
    # not count, and neither does a function outside a class
    assert unread_methods([package]) == ["Ring.square"]


def test_every_method_is_read_in_the_package():
    package = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert set(unread_methods(package)) == UNREAD_METHODS


def forwarding_methods(package):
    """``Class.method`` for every method of the classes in the ``package``
    sources, dunders aside, whose body, a docstring aside, is one
    ``return self.<attr>.<method>(...)`` of its own parameters, in order:
    its callers can call that method themselves."""
    out = []
    for cls in (c for source in package for c in ast.walk(ast.parse(source))
                if isinstance(c, ast.ClassDef)):
        for f in cls.body:
            if not isinstance(f, ast.FunctionDef) or (
                    f.name.startswith("__") and f.name.endswith("__")):
                continue
            body = f.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            params = [a.arg for a in f.args.args]
            if (isinstance(call, ast.Call) and not call.keywords
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Attribute)
                    and isinstance(call.func.value.value, ast.Name)
                    and call.func.value.value.id == params[0]
                    and [getattr(a, "id", None) for a in call.args] == params[1:]):
                out.append(f"{cls.name}.{f.name}")
    return sorted(out)


def test_the_scan_finds_a_forwarding_method():
    package = ("class Ring:\n"
               "    def order(self):\n        \"\"\"The order.\"\"\"\n"
               "        return self.add.order()\n\n"
               "    def apply(self, x, y):\n        return self.w.apply(x, y)\n\n"
               "    def swap(self, x, y):\n        return self.w.apply(y, x)\n\n"
               "    def twice(self, x):\n        return self.w.apply(self.w.apply(x))\n\n"
               "    def padded(self, x):\n        return self.w.apply(x, 0)\n\n"
               "    def again(self, x, y):\n        return self.apply(x, y)\n\n"
               "    def size(self):\n        return self.add.size\n\n"
               "    def __len__(self):\n        return self.add.__len__()\n")
    # arguments reordered, changed or added, a method of ``self`` itself,
    # an attribute that is not called and a dunder do not count
    assert forwarding_methods([package]) == ["Ring.apply", "Ring.order"]


def test_no_method_only_forwards_its_arguments():
    package = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert forwarding_methods(package) == []


def _name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _is_record(cls):
    """Whether ``cls`` is a ``NamedTuple`` subclass or a ``@dataclass``."""
    return (any(_name(b) == "NamedTuple" for b in cls.bases)
            or any(_name(d) == "dataclass" for d in cls.decorator_list))


def unread_fields(package, readers):
    """``Class.field`` for every record field (of a ``NamedTuple`` or a
    dataclass) and ``__slots__`` name of the classes in the ``package``
    sources that no source in ``readers`` reads as an attribute; the match
    is by name alone."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for source in package:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = []
            if _is_record(cls):
                names += [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
            for s in cls.body:
                if isinstance(s, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__" for t in s.targets):
                    names += [c.value for c in ast.walk(s.value) if isinstance(c, ast.Constant)]
            out += [f"{cls.name}.{name}" for name in names if name not in read]
    return sorted(out)


def test_the_scan_finds_an_unread_field():
    package = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
               "@dataclass(frozen=True)\nclass Report:\n    ok: bool\n    detail: str\n\n"
               "class Entry(NamedTuple):\n    name: str\n    rank: int = 0\n\n"
               "class Box:\n    __slots__ = ('size', '_spare')\n\n"
               "class Plain:\n    label: str\n")
    reader = "def show(r, b, e):\n    b._spare = r.detail\n    return r.ok, b.size, e.rank\n"
    # ``_spare`` is only stored, ``Entry.name`` is never read and ``label``
    # is no record field
    assert unread_fields([package], [reader]) == ["Box._spare", "Entry.name"]


def test_every_field_is_read():
    readers = [p.read_text() for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")]
    readers += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    package = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert unread_fields(package, readers) == []


# State that outlives one call, each with its reason.
OUTLIVING_STATE = {
    # the parser reads no input and every ``parse_args`` call returns a
    # fresh namespace, so one per process serves every ``cli.main`` call
    "cli.build_parser",
    # criterion 4 and ``test_mackey`` read this counter; a stats registry
    # is to absorb it (ROADMAP item 7)
    "mackey.double_coset_verifications",
}
MEMOS = {"cache", "lru_cache", "cached_property"}


def outliving_state(sources):
    """``module.name`` for every function or method of the ``sources``
    (``{module name: source}``) decorated with a memo (``functools.cache``,
    ``lru_cache`` or ``cached_property``, by name alone) and for every name
    a ``global`` statement declares: state that outlives the call that
    made it."""
    out = set()
    for mod, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and any(
                    _name(d) in MEMOS for d in node.decorator_list):
                out.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.Global):
                out.update(f"{mod}.{name}" for name in node.names)
    return sorted(out)


def test_the_scan_finds_state_that_outlives_a_call():
    sources = {
        "lib": ("import functools\nfrom functools import cached_property, lru_cache\n\n"
                "calls = 0\n\n"
                "@functools.cache\ndef table():\n    return {}\n\n"
                "@lru_cache(maxsize=None)\ndef rank(m):\n    return 0\n\n"
                "def count():\n    global calls\n    calls += 1\n\n"
                "def local():\n    seen = {}\n    return seen\n\n"
                "class Ring:\n    @cached_property\n    def size(self):\n        return 0\n\n"
                "    @property\n    def order(self):\n        return 0\n"),
    }
    # a memo decorator, called or not, and a ``global`` count; a local
    # dict and a plain property do not
    assert outliving_state(sources) == ["lib.calls", "lib.rank", "lib.size", "lib.table"]


def test_no_memo_or_global_outlives_a_call_but_the_listed_ones():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert set(outliving_state(sources)) == OUTLIVING_STATE
