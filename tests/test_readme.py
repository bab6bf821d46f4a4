import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_quick_start_runs_as_written():
    # The block is read from README.md, so a quick start that drifts from
    # the library fails here.
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quick start)", "exec"), {})
