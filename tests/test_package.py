"""The top-level package exports exactly the API the README documents."""

import re
from pathlib import Path

import revflow

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _documented_names() -> set:
    example = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    imported = re.search(r"from revflow import \((.*?)\)", example, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    entry_points = re.search(r"Key entry points:(.*?)\n\n", README, re.S).group(1)
    return names | set(re.findall(r"`(\w+)`", entry_points))


def test_all_matches_readme():
    assert set(revflow.__all__) - {"__version__"} == _documented_names()


def test_all_names_resolve():
    assert all(hasattr(revflow, name) for name in revflow.__all__)
