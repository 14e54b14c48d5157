"""The README's examples run as written; the names the README, the
benchmark and the console script look up exist; every public name in
src/ has a reader outside the tests."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import quditsearch
from quditsearch.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_api_example_runs_in_a_fresh_namespace(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["0.9999999999999845", "12"]


def readme_cli_commands():
    """argv of each ``quditsearch`` command in the README's CLI shell block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("quditsearch ")]


def test_readme_cli_examples_run(tmp_path):
    commands = readme_cli_commands()
    assert commands
    for argv in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out")
        assert main(argv) == 0, argv


def code_names(text):
    """The leading identifier of each backticked span outside parentheses."""
    depth, names = 0, []
    for i, part in enumerate(text.split("`")):
        if i % 2 == 0:
            depth += part.count("(") - part.count(")")
        elif depth == 0:
            names.append(re.match(r"\w+", part).group())
    return names


def readme_api_names():
    """(module, name) for each name the README's Python API section places at
    the package root or in a ``quditsearch.<module>`` bullet."""
    section = (ROOT / "README.md").read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    root = section.split("The package root exports", 1)[1].split("The rest is", 1)[0]
    pairs = [("quditsearch", name) for name in code_names(root)]
    bullets = re.findall(r"^- `(quditsearch\.\w+)`:(.*?)(?=^- |\n\n)", section,
                         flags=re.S | re.M)
    assert len(bullets) == 6
    for module, text in bullets:
        pairs += [(module, name) for name in code_names(text)]
    return pairs


def test_readme_api_names_exist():
    pairs = readme_api_names()
    assert ("quditsearch", "BasisIndex") in pairs
    assert ("quditsearch.reflections", "diffusion_direct") in pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def qs_attributes(path):
    """Names the file reads as ``qs.<name>`` or ``<obj>.qs.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "qs":
                names.add(node.attr)
            elif isinstance(owner, ast.Attribute) and owner.attr == "qs":
                names.add(node.attr)
    return names


def trace_points(path):
    """(module, attribute) pairs of the TRACE_POINTS table."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACE_POINTS":
            return [(t.elts[0].value, t.elts[1].value) for t in node.value.elts]
    raise AssertionError(f"no TRACE_POINTS in {path}")


def test_benchmark_lookups_exist():
    bench = ROOT / "benchmark"
    names = qs_attributes(bench / "workloads.py") | qs_attributes(bench / "run.py")
    assert "engine" in names and "run_search" in names
    missing = sorted(name for name in names if not hasattr(quditsearch, name))
    points = trace_points(bench / "run.py")
    assert ("quditsearch", "verify_f_pulse") in points
    # --trace 1 wraps each point by getattr, so a dropped name stops every
    # traced run; multipod keeps solve_ivp for this, with no caller of its own
    assert ("quditsearch.multipod", "solve_ivp") in points
    missing += [f"{module}.{attr}" for module, attr in points
                if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def public_definitions(package):
    """(module, name) of each public top-level function and class in ``package``."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def referenced_names(paths):
    """Each name the files read: a Name, an Attribute, an import alias, or a
    string constant (as TRACE_POINTS names what it wraps)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_src_defines_no_test_only_names():
    # a public function or class that only the tests read belongs in tests/helpers.py
    package = ROOT / "src" / "quditsearch"
    readers = referenced_names([*package.glob("*.py"), *(ROOT / "benchmark").glob("*.py")])
    defined = list(public_definitions(package))
    assert len(defined) > 40
    assert [f"{module}.{name}" for module, name in defined if name not in readers] == []


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["quditsearch"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
