"""The Python quick start in README.md runs as written, its CLI examples
parse against the commands of `mlslsh.cli.main`, and the examples that need
no input file of the reader's run as written."""

import json
import os
import re
import shlex
from pathlib import Path

import click
from click.testing import CliRunner

from mlslsh.cli import main
from mlslsh.index import load_index

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples() -> list[list[str]]:
    """The argv of every `mlslsh` line in the README's code blocks."""
    examples, in_block = [], False
    for line in README.read_text(encoding="utf-8").replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("mlslsh "):
            examples.append(shlex.split(line))
    return examples


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
    examples = readme_cli_examples()
    parent = click.Context(main, info_name="mlslsh")
    for name, *args in (argv[1:] for argv in examples):
        command = main.get_command(parent, name)
        assert command is not None, f"README runs unknown command {name!r}"
        with command.make_context(name, args, parent=parent):
            pass
    assert {argv[1] for argv in examples} == set(main.commands)


def test_readme_cli_examples_without_input_files_run(tmp_path, monkeypatch):
    # `probs` and the synthetic `build` read no file; the other lines name
    # files or vectors the reader supplies, and the bench and trend lines
    # run for minutes
    monkeypatch.chdir(tmp_path)
    runnable = [
        argv for argv in readme_cli_examples()
        if argv[1] == "probs"
        or (argv[1] == "build" and argv[argv.index("--input") + 1].startswith("synth:"))
    ]
    assert sorted(argv[1] for argv in runnable) == ["build", "probs"]
    docs = {}
    for argv in runnable:
        result = CliRunner().invoke(main, argv[1:], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        docs[argv[1]] = json.loads(result.stdout)

    probs = docs["probs"]
    assert probs["family"]["kind"] == "cross_polytope" and probs["family"]["dim"] == 32
    assert 0.0 < probs["p2_used"] < probs["p1"] <= 1.0 and probs["rho"] > 0.0

    built = docs["build"]
    assert built["output"] == "main.idx" and built["bytes"] == os.path.getsize("main.idx")
    index = load_index("main.idx")
    assert (index.size, index.dataset.dim) == (built["n"], built["d"]) == (10000, 32)
    assert (index.levels, index.num_repetitions) == (built["levels"], built["repetitions"])
    cal = index.calibration
    assert (cal.p1, cal.p2) == (built["p1"], built["p2"])
    assert (cal.p1_std_error, cal.p2_std_error) == (built["p1_std_error"], built["p2_std_error"])
