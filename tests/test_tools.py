"""The scripts under tools/ run and print the lines their docstrings describe.

Beside them, guards that the package keeps no top-level name its code never
uses and imports no name a module never uses.
"""

import ast
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run_tool(*args: str, code: int = 0) -> str:
    result = subprocess.run(
        [sys.executable, str(TOOLS / args[0]), *args[1:]], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == code, result.stderr
    return result.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status and wait4")
def test_own_peak_prints_one_line_of_readings():
    fields = run_tool("own_peak.py", "volume", "--dim", "2", "--seed", "1").split()
    readings = dict(zip(fields[::2], fields[1::2]))
    assert list(readings) == ["wall_s", "cpu_s", "own_peak_mb", "minflt", "sys_s", "nvcsw", "exit"]
    assert len(fields) == 14
    assert readings["exit"] == "0"
    wall, cpu, sys_s = float(readings["wall_s"]), float(readings["cpu_s"]), float(readings["sys_s"])
    assert 0 < wall and 0 < cpu and 0 <= sys_s <= cpu
    # A Python process with numpy imported holds tens of MB and faults in thousands of pages.
    assert math.isfinite(float(readings["own_peak_mb"])) and float(readings["own_peak_mb"]) > 1
    assert int(readings["minflt"]) > 100 and int(readings["nvcsw"]) >= 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status and wait4")
def test_own_peak_exits_with_the_command_exit_code():
    fields = run_tool("own_peak.py", "volume", "--dim", "0", "--seed", "1", code=2).split()
    assert fields[-2:] == ["exit", "2"]


def test_own_peak_exits_128_plus_the_signal_that_killed_the_command(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("own_peak", TOOLS / "own_peak.py")
    own_peak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(own_peak)
    monkeypatch.setattr(own_peak, "run", lambda args: own_peak.Run(1.0, 1.0, 9.0, 100, 0.1, 50, -9))
    assert own_peak.main(["volume", "--dim", "2"]) == 137
    assert capsys.readouterr().out.split()[-2:] == ["exit", "-9"]


def test_code_lines_counts_every_module():
    header, *rows, total = [line.split() for line in run_tool("code_lines.py").splitlines()]
    assert header == ["module", "lines", "code"]
    modules = {Path(p).name for p in (TOOLS.parent / "src" / "ellipsample").glob("*.py")}
    assert {row[0] for row in rows} == modules
    counts = [(int(lines), int(code)) for _, lines, code in rows]
    assert all(0 <= code <= lines for lines, code in counts)
    assert total == ["total", str(sum(c[0] for c in counts)), str(sum(c[1] for c in counts))]


def test_no_top_level_name_is_dead():
    # A module's top-level function, class or constant must be referenced by a
    # name, attribute or import somewhere in src/ outside its own definition
    # (docstrings and strings do not count); dunders such as __all__ are exempt.
    defined, used = [], set()
    for path in sorted((TOOLS.parent / "src" / "ellipsample").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined += [(path.name, name) for name in names if not name.startswith("__")]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            used |= refs - names
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []


def cli_names_the_bench_patches() -> set[str]:
    """The keys of ``CLI_ENTRY_POINTS`` in bench/spans.py: names its tracer patches on ``cli``."""
    tree = ast.parse((TOOLS.parent / "bench" / "spans.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["CLI_ENTRY_POINTS"]:
            return set(ast.literal_eval(stmt.value))
    raise AssertionError("bench/spans.py defines no CLI_ENTRY_POINTS")


def test_no_import_is_unused():
    # Each name a module imports must be read in it as a name, or listed in its
    # __all__.  The one exception is the names the bench tracer patches on cli,
    # which cli must hold whether or not a command calls them.
    patched = cli_names_the_bench_patches()
    unused = []
    for path in sorted((TOOLS.parent / "src" / "ellipsample").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        if path.name == "cli.py":
            assert patched <= imported | {stmt.name for stmt in tree.body if hasattr(stmt, "name")}
            used |= patched
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
