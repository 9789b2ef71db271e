"""Source hygiene: every name a module imports is used by that module,
the package root `__init__.py` holds only its docstring, every function
or method the package defines is referenced somewhere, none exists only
for tests to reach, no function or class of the certifier's modules
exists only for `verify-paper`, every error class but the base is caught by type
somewhere in the package, the tests' exact oracles import no package
code, the README layout table has one row per module and names only
what exists, every edit of the mutation catalogue
(`mutation_probe.py`) applies exactly once, and the coverage probe
(`coverage_probe.py`) reports exactly the statements a run leaves
unrun."""
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


def test_no_function_exists_only_for_tests():
    # what only tests need lives in the tests (`exact_oracles.py`)
    defining = [path.read_text() for path in MODULES]
    assert _unreferenced_functions(defining, _sources(("src", "bench"))) == []


def _module_level_definitions(tree):
    """Names of the functions and classes at the top level of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds)}


def _defined_only_for(defining, referencing):
    """Top-level definitions of the defining sources that none of the
    referencing sources names, by the rule of `_referenced_names`; a
    defining module that names its own helper counts as a reference."""
    defined = set()
    for source in defining:
        defined |= _module_level_definitions(ast.parse(source))
    used = set()
    for source in referencing:
        used |= _referenced_names(ast.parse(source))
    return sorted(defined - used)


def test_no_certifier_code_exists_only_for_verify_paper():
    # what only `verify-paper` runs lives in `verify.py`: the certifier's
    # modules hold only what a certificate, a search or the bench uses
    own = (PACKAGE / "verify.py", PACKAGE / "cli.py")
    defining = [path.read_text() for path in MODULES if path not in own]
    referencing = [
        path.read_text()
        for folder in ("src", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != PACKAGE / "verify.py"
    ]
    assert _defined_only_for(defining, referencing) == []


def test_code_only_for_verify_paper_is_reported():
    module = (
        "def used():\n    return helper()\n"
        "def helper():\n    pass\n"
        "class Profile:\n    def method(self):\n        pass\n"
    )
    elsewhere = "used()\n"
    assert _defined_only_for([module], [module, elsewhere]) == ["Profile"]


def _caught_names(source: str):
    """Names of the exception types a module's except clauses name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for n in ast.walk(node.type):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    names.add(n.id if isinstance(n, ast.Name) else n.attr)
    return names


def test_every_error_class_is_caught_by_type():
    # an error type that no except clause of the package names is only
    # an HmsError with a longer name; tests match its message instead
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        caught |= _caught_names(path.read_text())
    assert sorted(defined - caught - {"HmsError"}) == []


def test_caught_names_are_read():
    source = (
        "try:\n    f()\nexcept (A, errors.B) as exc:\n    pass\n"
        "except C:\n    pass\nexcept:\n    raise D\n"
    )
    assert _caught_names(source) == {"A", "errors", "B", "C"}


def _imported_modules(source: str):
    """Top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_exact_oracles_use_no_package_code():
    # an oracle that imported the rule it checks would fail with it; the
    # bench checker it borrows from must stay independent too
    for path in (ROOT / "tests" / "exact_oracles.py", ROOT / "bench" / "oracles.py"):
        source = path.read_text()
        assert "hmslines" not in _imported_modules(source), path.name
        assert "ordinarity_from_valuations" not in _referenced_names(ast.parse(source))


def test_package_import_is_seen():
    source = "import hmslines.surface as s\nfrom hmslines import lines\nimport os\n"
    assert _imported_modules(source) == {"hmslines", "os"}
    assert _imported_modules("from os.path import join\n") == {"os"}


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


def _layout_table(readme: str):
    """The README's library layout section."""
    return readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]


def _layout_modules(readme: str):
    """Modules named in the first column of the README's library layout table."""
    return set(re.findall(r"^\| `hmslines\.(\w+)`", _layout_table(readme), re.MULTILINE))


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


# the JSON literal that certificates write; no Python code names it
LAYOUT_STOPLIST = {"null"}


def _code_names(source: str):
    """What a module's code names: names, attributes, definitions,
    arguments, the constants None, True and False, and every string
    constant but a docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and id(node) not in docstrings:
            names.add(node.value if isinstance(node.value, str) else repr(node.value))
    return names


def _unknown_layout_names(readme, modules, package_sources, test_sources):
    """Backticked dotted identifiers of the layout table with a part that
    is neither a module, nor named by the package's code, nor a `def` of
    the tests."""
    known = {"hmslines", *modules}
    for source in package_sources:
        known |= _code_names(source)
    for source in test_sources:
        known |= _defined_functions(ast.parse(source))
    spans = re.findall(r"`([^`]+)`", _layout_table(readme))
    return sorted(
        {
            span
            for span in spans
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span)
            and span not in LAYOUT_STOPLIST
            and not set(span.split(".")) <= known
        }
    )


def test_layout_table_names_only_what_exists():
    # a row that names a deleted function or attribute is stale
    assert _unknown_layout_names(
        (ROOT / "README.md").read_text(),
        [path.stem for path in MODULES],
        _sources(("src",)),
        _sources(("tests",)),
    ) == []


def test_stale_layout_name_is_reported():
    readme = (
        "## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `hmslines.quartics` | `BinaryQuartic.coeffs`, `quartics.made_up_name`, "
        "`made_up(x)`, `x == 0`, `null`, `None`, `\"labc\"`, `helper`, `read` |\n"
        "\n## Later\n\n`another_made_up_name`\n"
    )
    package = (
        '"""The module docstring names `read`."""\n'
        "class BinaryQuartic:\n    def __init__(self, x=None):\n"
        "        self.coeffs = 'labc'\n"
    )
    tests = "def helper():\n    pass\n"
    assert _unknown_layout_names(readme, ["quartics"], [package], [tests]) == [
        "quartics.made_up_name",
        "read",
    ]


def test_every_mutant_applies_once():
    # the probe refuses a stale edit, but it runs outside tier-1
    from mutation_probe import MUTANTS

    for name, path, old, _ in MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, name


def test_coverage_probe_reports_the_statement_never_run(tmp_path):
    # the probe runs outside tier-1, so its counter and tracer are
    # checked here on a planted module
    from coverage_probe import LineCollector, missed, statements

    source = (
        '"""A planted module."""\n'
        "import os\n"
        "def outer(x):\n"
        '    """Its docstring."""\n'
        "    def inner():\n"
        "        return os.sep\n"
        "    if x:\n"
        "        return inner()\n"
        "    return None\n"
    )
    path = tmp_path / "planted.py"
    owned = statements(source)
    assert sorted(owned) == [6, 7, 8, 9]
    with LineCollector([path]) as collector:
        namespace = {}
        exec(compile(source, str(path), "exec"), namespace)
        namespace["outer"](True)
    assert missed(owned, collector.ran[str(path)]) == [9]
