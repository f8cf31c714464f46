"""The README's Python examples run as written and print what they say."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_examples_run(capsys):
    # the blocks build on each other, so they run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = re.search(r"^print\(sol\.epsilon\) +# (\d\.\d+)\.\.\.$", blocks[0],
                        flags=re.M)
    assert capsys.readouterr().out.startswith(printed.group(1))
