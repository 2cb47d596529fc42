"""README's library example runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the loop prints one "time efficiency" line per evolved time
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split()[0]) for line in lines] == [0.1, 0.25]
