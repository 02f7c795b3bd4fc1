"""The Python quick start in README.md runs as written."""

import re
from pathlib import Path

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
