"""The README matches the code: its library snippet runs as written against
the current API, its report.csv bullet lists the report schema, and its
run-input table lists the run inputs."""

import re
from pathlib import Path

from ccpnet import dataio

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


def test_readme_dump_rows_match_report_schema():
    """The README's report.csv bullet lists the dump's columns and rows as
    the report schema writes them at the default level."""
    text = " ".join(README.read_text().split())
    match = re.search(
        r"`report\.csv` - full-precision machine dump \(`([^`]*)`\).*?"
        r"one row per measure: ((?:`[^`]*`,? )+).*?"
        r"`(\w+)` row \(`(\w+)`\) and a `(\w+)` row \(`(\w+)`\)",
        text,
    )
    assert match, "README's report.csv bullet lists no columns and rows"
    assert match[1] == ",".join(dataio._COLUMNS)
    tag = dataio._level_tag(0.99)
    assert re.findall(r"`([^`]*)`", match[2]) == [
        m.label.format(tag=tag) for m in dataio._MEASURES
    ]
    rows = [(dealer, label) for dealer, label, _, _ in dataio._SCENARIO_ROWS]
    assert [match.group(3, 4), match.group(5, 6)] == rows


def test_readme_run_inputs_match_the_table():
    """README's run-input table lists every config key, its flag and
    whether the header records it, in the order of ``dataio.RUN_INPUTS``."""
    match = re.search(
        r"\| Config key \| Flag \| Accepts \| In the header \|\n\|[-|]+\|\n(.*?)\n\n",
        README.read_text(),
        re.S,
    )
    assert match, "README has no run-input table"
    rows = [
        re.fullmatch(r"\| `([^`]+)` \| `(--[\w-]+).*\| (yes|no) \|", line).groups()
        for line in match[1].splitlines()
    ]
    assert rows == [
        (
            row.key.replace("{", "<").replace("}", ">"),
            row.flag,
            "yes" if row.recorded else "no",
        )
        for row in dataio.RUN_INPUTS
    ]
