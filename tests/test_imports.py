"""Every name a module in src/ or tests/ imports is used in that module,
no library module asserts: a broken invariant raises an exception, which
`python -O` does not strip, only `geometry.checked_int` decides what a
count is, and only the index computes on packed keys: the query module
imports no private name and no key helper, and no library code reads
`MultiLevelIndex.repetitions`.

No linter runs on this repository, so these scans keep unused imports,
library asserts and second spellings of the count rule out. An import
marked `# noqa: F401` on the line of its name is kept on purpose, as is a
name the module lists in its `__all__`.

`code_lines` counts the lines of code of a module, without blank lines,
comments or docstrings; run this file to print the count of every module
in src/ and their total:

    python tests/test_imports.py
"""

import ast
import io
import tokenize
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
    return attribute_places(source, "integer")


def attribute_places(source: str, name: str) -> list[str]:
    """The places `source` reads or sets an attribute `name`, as "line:
    innermost function"."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            inside = max(around, key=lambda f: f.lineno).name if around else "<module>"
            found.append(f"{node.lineno}: {inside}")
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


QUERY = ROOT / "src" / "mlslsh" / "query.py"
# the key layout's helpers, which only the index calls
KEY_HELPERS = {"slot_bits", "ranked_tuples"}


def private_imports(source: str, forbidden=frozenset()) -> list[str]:
    """The names `source` imports from a module of its package, by a
    relative import or from `mlslsh`, that start with an underscore or lie
    in `forbidden`, as "line: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "mlslsh"
        ):
            found += [
                f"{node.lineno}: {alias.name}" for alias in node.names
                if alias.name.startswith("_") or alias.name in forbidden
            ]
    return found


def test_the_query_module_leaves_keys_to_the_index():
    source = QUERY.read_text()
    assert private_imports(source, KEY_HELPERS) == []
    # the probes keep codes; the key layout and the direction block are the index's
    held = {"_bits", "_shifts", "_block"}
    assert [place for name in held for place in attribute_places(source, name)] == []


def test_no_library_code_reads_the_repetition_views():
    # `MultiLevelIndex.__post_init__` builds the views by name, for tests and
    # the benchmark; the engine reads the key, order and direction blocks
    found = [
        f"{path.name}:{place}" for path in LIBRARY
        for place in attribute_places(path.read_text(), "repetitions")
    ]
    assert found == []


def test_the_import_scan_finds_private_and_key_helper_imports():
    source = (
        "from .families import _shifts, probe_sequence\nfrom .index import Walk\n"
        "from mlslsh.families import slot_bits\nfrom numpy import _core\n"
        "import mlslsh._private\nfrom . import _x\n"
    )
    assert private_imports(source, KEY_HELPERS) == ["1: _shifts", "3: slot_bits", "6: _x"]


def code_lines(source: str) -> int:
    """The lines of `source` that hold code: a line that is blank, holds
    only a comment or lies in a docstring, the string that opens a module,
    class or function body, does not count."""
    tree = ast.parse(source)
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module\ndocstring."""\n\nimport os  # a comment\n\n\n# only a comment\n'
        "class A:\n    'class docstring'\n\n    def f(self, x):\n"
        '        """Function\n        docstring."""\n        s = """a string\n'
        '        that is no docstring"""\n        return (x +\n                1)\n'
    )
    # import, class, def, the two lines of the string and of the return
    assert code_lines(source) == 7
    assert code_lines("") == 0


if __name__ == "__main__":
    counts = {str(path.relative_to(ROOT)): code_lines(path.read_text()) for path in LIBRARY}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
