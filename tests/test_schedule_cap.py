"""The repetition cap `consulted_reps` stays out of the schedule.

A setting that needs more repetitions than were built cannot reach its
success probability, so the schedule leaves it out rather than capping it.
Only a fixed query answers such a pin, with its repetitions capped at those
built. This scan fails on any use of `consulted_reps` in src/, under its
own name or an alias, outside `fixed_level_query`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
CAP, ALLOWED = "consulted_reps", "fixed_level_query"


def cap_uses(source: str) -> tuple[list[str], int]:
    """The uses of the cap outside ALLOWED, as "line: enclosing function",
    and the number of uses inside it. A use is a read of the name or of an
    alias it was imported as, or an attribute of that name."""
    tree = ast.parse(source)
    names = {CAP} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == CAP and alias.asname
    }
    outside, inside = [], 0

    def visit(node, scopes):
        nonlocal inside
        for child in ast.iter_child_nodes(node):
            used = (isinstance(child, ast.Name) and child.id in names) or (
                isinstance(child, ast.Attribute) and child.attr == CAP
            )
            if used and ALLOWED in scopes:
                inside += 1
            elif used:
                outside.append(f"{child.lineno}: {scopes[-1] if scopes else '<module>'}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scopes, child.name))
            else:
                visit(child, scopes)

    visit(tree, ())
    return outside, inside


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_a_fixed_query_uses_the_cap(path):
    assert cap_uses(path.read_text())[0] == []


def test_the_fixed_query_is_where_the_cap_is_used():
    # the scan is not vacuous: it sees the one use the rule allows
    assert cap_uses((ROOT / "src" / "mlslsh" / "query.py").read_text()) == ([], 1)


def test_the_scan_finds_a_cap_in_the_schedule():
    source = (
        "from .index import consulted_reps as cap\n"
        "import mlslsh.index as ix\n"
        "def fixed_level_query(index):\n"
        "    def pinned():\n"
        "        return consulted_reps(index, 1, 1, 2)\n"
        "    return pinned\n"
        "def build(index):\n"
        "    return cap(index, 1, 1, 2), ix.consulted_reps(index, 2, 1, 2)\n"
        "count = consulted_reps\n"
    )
    assert cap_uses(source) == (["8: build", "8: build", "9: <module>"], 1)
