"""The README's library snippet runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text()
    match = re.search(r"## Library entry points\n+```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under 'Library entry points'"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.scenario_names[0] == "no_ccp"
    assert report.total_ee_ratio[0] == 1.0
    assert namespace["ccpnet"].min_clearing_members(namespace["spec"]).n_star == 461
