import ast
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import ladylake
from ladylake.model import GameParams


def test_version_matches_pyproject():
    # A regex rather than tomllib, which Python 3.10 lacks.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert ladylake.__version__ == match.group(1)


FILE_SUFFIXES = {"csv", "json", "md", "py", "svg", "toml"}


def test_readme_names_resolve():
    # Every backticked `module.name` in the README (after `ladylake.` or a
    # submodule, call arguments dropped) must exist; file names are skipped.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(ladylake.__path__)}
    names = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`", text)
        if name.split(".")[0] in modules | {"ladylake"}
        and name.split(".")[-1] not in FILE_SUFFIXES
    }
    assert len(names) > 20
    missing = []
    for name in sorted(names):
        head, *rest = name.removeprefix("ladylake.").split(".")
        obj = importlib.import_module(f"ladylake.{head}")
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def _allowed_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Source spans where a literal tolerance may stand: the GameParams table,
    parameter and CLI-option defaults, cmd_verify's thresholds and
    critical_mu's bracket."""
    nodes: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "GameParams":
            nodes.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            nodes += [d for d in node.args.defaults + node.args.kw_defaults if d is not None]
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            nodes += [kw.value for kw in node.keywords if kw.arg == "default"]
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_verify":
            nodes += [n for n in ast.walk(node) if isinstance(n, ast.Assign)]
        if isinstance(node, ast.FunctionDef) and node.name == "critical_mu":
            calls = [n for n in ast.walk(node) if getattr(getattr(n, "func", None), "id", "") == "bisect"]
            nodes += [arg for call in calls for arg in call.args[1:3]]
    return [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset)) for n in nodes]


def test_tolerances_live_in_game_params():
    # A literal in scientific notation is a tolerance, a step or a threshold.
    # Tolerances are read from GameParams; the rest stand where a caller sees them.
    stray = []
    for path in sorted(Path(ladylake.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = _allowed_spans(ast.parse(source))
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.NUMBER or "e" not in tok.string.lower():
                continue
            if not any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
                stray.append(f"{path.name}:{tok.start[0]} {tok.string}")
    assert stray == []


def test_every_tolerance_has_a_reader():
    # A constant of the table that no other module reads is a dead knob.
    table = [n for n, a in GameParams.__annotations__.items() if "ClassVar" in str(a)]
    read = set()
    for path in Path(ladylake.__file__).parent.glob("*.py"):
        if path.name != "model.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "eps_r" in table
    assert [n for n in table if n not in read] == []


# Public names that nothing in src/ reads, each with the reader it is kept for.
PUBLIC_READERS = {
    "entry_delta": "perfbench's query oracle",
    "solve_classical": "perfbench's classical layer",
    "tangency_time": "perfbench's focal layer",
    "escape_angle": "the whole-game value of ROADMAP item 4",
    "px_to_polar": "the SVG tests, which invert the pixel mapping",
    "px_to_cart": "the SVG tests, which invert the pixel mapping",
    "to_cartesian": "callers who build the exported CartesianPose",
    "trajectory_hamiltonians": "the acceptance criteria",
}


def test_every_public_name_has_a_reader():
    # A module-level function or class that no module reads, as a name, an
    # attribute or an import, is dead surface unless a reader outside src/ is named.
    defined, read = set(), set()
    for path in Path(ladylake.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and not n.name.startswith("_")}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    assert sorted(defined - read) == sorted(PUBLIC_READERS)


# Runs argv through cli.main in a fresh interpreter (no argv: the import
# alone) and prints whether numpy, multiprocessing and multiprocessing.pool
# were loaded.
NUMPY_PROBE = """\
import contextlib, io, sys
import ladylake.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert ladylake.cli.main(sys.argv[1:]) == 0
print("numpy" in sys.modules, "multiprocessing" in sys.modules, "multiprocessing.pool" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads_numpy", [
    ([], False),
    (["solve", "--mu", "0.3", "--r", "0.9", "--theta", "3.0"], False),  # above the barrier
    (["critical-mu"], False),
    (["flowfield", "--mu", "0.3", "--game", "time", "--samples", "20", "--out", "{tmp}/f.svg"], False),
    (["simulate", "--mu", "0.3", "--r0", "0.2", "--theta0", "1.0", "--out", "{tmp}/run.csv"], False),
    (["solve", "--mu", "0.3", "--r", "0.05", "--theta", "2.5"], True),  # a focal tributary: the scan
    (["verify", "--mu", "0.3", "--grid", "2"], True),  # the saddle check: deviation reports
], ids=["import", "solve_above_barrier", "critical_mu", "flowfield_time", "simulate_eq_eq",
        "solve_focal_tributary", "verify"])
def test_only_the_scan_loads_numpy(argv, loads_numpy, tmp_path):
    # numpy costs most of a command's start-up, and only focal.solve_entry's
    # scan uses it.  multiprocessing is for deviation_report's forked children
    # alone, so only verify loads it, and no command loads its Pool.
    src = Path(ladylake.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loads_numpy), str(argv[:1] == ["verify"]), "False"]
