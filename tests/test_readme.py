"""The Python quick start in README.md runs as written, and its CLI examples
parse against the commands of `mlslsh.cli.main`."""

import re
import shlex
from pathlib import Path

import click

from mlslsh.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    # the query is a slightly shifted copy of row 17, so row 17 is in range
    assert 17 in ns["report"].ids
    assert 1 <= ns["report"].j_best <= ns["cal"].max_probes
    assert capsys.readouterr().out.strip()


def test_readme_cli_examples_parse():
    # each example is checked for its verb, option names, choices and value
    # types by click's own parser; no command body runs
    examples, in_block = [], False
    for line in README.read_text(encoding="utf-8").replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("mlslsh "):
            examples.append(shlex.split(line))
    parent = click.Context(main, info_name="mlslsh")
    for name, *args in (argv[1:] for argv in examples):
        command = main.get_command(parent, name)
        assert command is not None, f"README runs unknown command {name!r}"
        with command.make_context(name, args, parent=parent):
            pass
    assert {argv[1] for argv in examples} == set(main.commands)
