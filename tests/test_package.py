"""The package exports the README's API through one public list, imports
nothing it does not use, and defines nothing that only tests use; README's
commands and example run as written."""

import ast
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import revflow
from revflow.cli import main

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


def test_one_public_list():
    """revflow.__all__ is the only public list: no submodule assigns its own."""
    package = Path(revflow.__file__).resolve().parent
    assigners = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                assigners.append(path.name)
    assert assigners == ["__init__.py"]


def _scoped(scope, owner: str):
    """(owner, node) of every node under scope, where owner is the qualified
    name of the innermost def, lambda or class that holds the node."""
    for node in ast.iter_child_nodes(scope):
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped(node, f"{owner}.{node.name}")
        else:
            yield from _scoped(node, f"{owner}.<lambda>" if isinstance(node, ast.Lambda) else owner)


def test_one_table_cap():
    """One function reads the environment, for REVFLOW_TT_LIMIT; ``limit`` is
    a parameter only of the check that defaults to it and of the two table
    builders the benchmark passes one to."""
    package = Path(revflow.__file__).resolve().parent
    nodes = [pair for path in sorted(package.glob("*.py"))
             for pair in _scoped(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    readers = {owner for owner, node in nodes
               if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               or isinstance(node, ast.Name) and node.id in ("environ", "getenv")
               or isinstance(node, ast.Constant) and node.value == "REVFLOW_TT_LIMIT"}
    assert readers == {"logicnet._table_cap"}
    takers = sorted(f"{owner}.{getattr(node, 'name', '<lambda>')}" for owner, node in nodes
                    if isinstance(node, (ast.FunctionDef, ast.Lambda))
                    and "limit" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs})
    assert takers == ["arith.design_truth_table", "logicnet.EsopForm.to_truth_table", "logicnet._check_limit"]


def test_import_loads_no_unused_stdlib():
    """``import revflow`` loads no standard-library module that revflow never
    calls, or calls in one reader only.  ``-S`` keeps site from preloading
    typing and pathlib; revflow's parent directory on PYTHONPATH finds the
    package in src/ and installed alike."""
    unused = ("dataclasses", "inspect", "json", "typing", "pathlib")
    code = f"import sys, revflow; print(sorted(sys.modules.keys() & {set(unused)!r}))"
    env = dict(os.environ, PYTHONPATH=str(Path(revflow.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _unused_imports(path: Path) -> list:
    """Names a module imports and never references, outside its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        # a string annotation such as "tuple[int | None, ...]" names what it uses
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            expr = ast.parse(annotation.value, mode="eval")
            used |= {sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "revflow").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


def _definitions(scope, prefix: str):
    """(qualified name, name) of every non-dunder def/class at module or class level."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, prefix + node.name + ".")


def _references(tree) -> tuple[set, set]:
    """The names used as a Name or keyword, and those used as an Attribute;
    strings (say in __all__) do not count."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names, attributes


# the names that more than one library class defines and that src/ reads on
# each of them (Xmg and RevCircuit): an attribute's name alone cannot tell
# which class it is read on, so any other such name counts as unused
SHARED_ATTRIBUTES = {"num_inputs", "num_outputs"}


def test_no_test_only_api():
    """Every library definition is used by the library, the benchmark or the README's API."""
    root = Path(__file__).resolve().parents[1]
    library = sorted((root / "src" / "revflow").glob("*.py"))
    bench = [p for p in sorted((root / "perfbench").glob("*.py")) if p.name != "test_bench.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in library + bench}
    refs = [_references(tree) for tree in trees.values()]
    attributes = set().union(*(attrs for _, attrs in refs))
    used = _documented_names().union(attributes, *(names for names, _ in refs))
    definitions = [(path.stem, qualified, name)
                   for path in library for qualified, name in _definitions(trees[path], "")]
    defined = Counter(name for _, qualified, name in definitions if "." in qualified)
    shared = {name for name, count in defined.items() if count > 1}
    # a class-level definition is reached only as an attribute: a bare name
    # that happens to match (a local variable, say) does not use it, and a
    # name that two classes define uses them only if SHARED_ATTRIBUTES has it
    members = attributes - (shared - SHARED_ATTRIBUTES)
    unused = [
        f"{module}.{qualified}"
        for module, qualified, name in definitions
        if name not in (members if "." in qualified else used)
    ]
    assert unused == []


def test_readme_runs_as_written(tmp_path, monkeypatch):
    """Every revflow command in README's code blocks exits 0, in order, and
    the Library example runs."""
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for block in re.findall(r"```\n(.*?)```", README, re.S)
        for line in block.splitlines()
        if line.startswith("revflow ")
    ]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    exec(re.search(r"```python\n(.*?)```", README, re.S).group(1), {})
