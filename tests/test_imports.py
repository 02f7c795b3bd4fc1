"""Every name a module in src/ or tests/ imports is used in that module,
no library module asserts: a broken invariant raises an exception, which
`python -O` does not strip, and only `geometry.checked_int` decides what a
count is.

No linter runs on this repository, so these scans keep unused imports,
library asserts and second spellings of the count rule out. An import
marked `# noqa: F401` on the line of its name is kept on purpose, as is a
name the module lists in its `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*LIBRARY, *(ROOT / "tests").rglob("*.py")])


def annotations(tree: ast.AST):
    """Every annotation expression in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
        "from pathlib import Path\nimport re\n__all__ = ['loads']\n\n"
        "def f(p: 'Path') -> str:\n    return os.sep + 're'\n"
    )
    assert unused_imports(source) == ["3: dumps", "5: re"]


def asserts(source: str) -> list[int]:
    """The lines of the assert statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_module_asserts_nothing(path):
    assert asserts(path.read_text()) == []


def test_the_scan_finds_an_assert():
    source = "def f(x):\n    # assert x\n    if x:\n        assert x > 0, 'assert'\n    return x\n"
    assert asserts(source) == [4]


def integer_checks(source: str) -> list[str]:
    """The places `source` names `np.integer`, as "line: innermost function"."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "integer":
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            name = max(around, key=lambda f: f.lineno).name if around else "<module>"
            found.append(f"{node.lineno}: {name}")
    return sorted(found, key=lambda place: int(place.split(":")[0]))


def test_only_checked_int_names_a_numpy_integer():
    found = {}
    for path in LIBRARY:
        for place in integer_checks(path.read_text()):
            found.setdefault(str(path.relative_to(ROOT)), []).append(place.split(": ")[1])
    assert found == {"src/mlslsh/geometry.py": ["checked_int"]}


def test_the_scan_finds_a_numpy_integer():
    source = (
        "import numpy as np\nKINDS = (int, np.integer)\n\n"
        "def f(x):\n    def g(y):\n        return isinstance(y, np.integer)\n"
        "    return g(x) or isinstance(x, numpy.integer)\n"
    )
    assert integer_checks(source) == ["2: <module>", "6: g", "7: f"]
