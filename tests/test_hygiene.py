"""Source hygiene: every name a module imports is used by that module,
the package root `__init__.py` holds only its docstring, every function
or method the package defines is referenced somewhere, none exists only
for tests to reach unless it is allowlisted, the README layout table
has one row per module, and every edit of the mutation catalogue
(`mutation_probe.py`) applies exactly once."""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hmslines

# __init__.py is the package docstring and nothing else
PACKAGE = Path(hmslines.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# where a reference may live, relative to the repository root
ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIRS = ("src", "tests", "bench")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == [(1, "os"), (2, "lcm")]


def test_package_root_is_only_its_docstring():
    # each name has one import path, the module that defines it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def _defined_functions(tree):
    """Names of the functions and methods defined in a module, dunders excepted."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _referenced_names(tree):
    """Names a module uses: loads, attributes and identifier strings.

    Identifier strings count because `bench/tracer.py` wraps functions
    by name; imports do not, so a re-export alone is no use.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _unreferenced_functions(defining, referencing):
    defined = set()
    for source in defining:
        defined |= _defined_functions(ast.parse(source))
    used = set()
    for source in referencing:
        used |= _referenced_names(ast.parse(source))
    return sorted(defined - used)


def _sources(folders):
    return [
        path.read_text()
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


def test_every_function_is_referenced():
    defining = [path.read_text() for path in MODULES]
    assert _unreferenced_functions(defining, _sources(REFERENCE_DIRS)) == []


# functions only tests call, each kept on purpose
TEST_ONLY = {
    "elementary_symmetric": "reference implementation the model tests compare against",
    "ordinarity_from_profile": "the exact-rational ordinarity oracle",
}


def test_no_function_exists_only_for_tests():
    defining = [path.read_text() for path in MODULES]
    sources = _sources(("src", "bench"))
    assert _unreferenced_functions(defining, sources) == sorted(TEST_ONLY)


def test_unreferenced_function_is_reported():
    module = (
        "class A:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "def wrapped():\n    pass\n"
    )
    elsewhere = 'LAYERS = (("module", None, "wrapped"),)\n'
    assert _unreferenced_functions([module], [module, elsewhere]) == ["unused"]


def _direct_calls(source: str, name: str):
    """Lines where a module calls `name(...)`, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def test_only_padics_constructs_elements():
    # UElt trusts its coordinates to be reduced and padded; only the
    # ring's own helpers may call it, so nothing else can hand it raw ones
    calls = {
        str(path.relative_to(ROOT)): _direct_calls(path.read_text(), "UElt")
        for folder in REFERENCE_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != PACKAGE / "padics.py"
    }
    assert {path: lines for path, lines in calls.items() if lines} == {}


def test_direct_call_is_reported():
    source = (
        "from hmslines import padics\n"
        "from hmslines.padics import UElt\n"
        "a = UElt(ring, (1,))\n"
        "b = padics.UElt(ring, (1,))\n"
        "isinstance(a, UElt)\n"
        "c = ring.elt([1])\n"
    )
    assert _direct_calls(source, "UElt") == [3, 4]


def test_every_traced_layer_resolves():
    # `--trace 1` skips a layer whose entry point is gone, so a rename
    # would drop it from the trace without an error
    sys.path.append(str(ROOT / "bench"))
    from tracer import LAYERS

    for module, owner, attr, layer in LAYERS:
        target = importlib.import_module("hmslines." + module)
        if owner is not None:
            target = getattr(target, owner)
        assert attr in vars(target), layer


def _layout_modules(readme: str):
    """Modules named in the first column of the README's library layout table."""
    table = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `hmslines\.(\w+)`", table, re.MULTILINE))


def test_layout_table_has_a_row_per_module():
    rows = _layout_modules((ROOT / "README.md").read_text())
    assert rows == {path.stem for path in MODULES}


def test_layout_table_is_read():
    readme = (
        "## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `hmslines.lines` | charts |\n| `hmslines.cli`  | the `hmslines.x` entry |\n"
        "\n## Later\n\n| `hmslines.search` | not in the table |\n"
    )
    assert _layout_modules(readme) == {"lines", "cli"}


def test_every_mutant_applies_once():
    # the probe refuses a stale edit, but it runs outside tier-1
    from mutation_probe import MUTANTS

    for name, path, old, _ in MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, name
