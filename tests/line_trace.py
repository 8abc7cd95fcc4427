"""The statements of src/ladylake that a pytest run never executes.

    python tests/line_trace.py [PYTEST_ARGS]
    PYTHONPATH=tests python -m pytest -p line_trace [PYTEST_ARGS]

The first form runs Tier-1 (pytest -q --continue-on-collection-errors, on
tests/) unless it is given other arguments.  Either way this module is a
pytest plugin: from pytest_configure, before the test modules import
ladylake, sys.settrace and threading.settrace trace the lines of every frame
whose code lives in src/ladylake, and no other frame, and the terminal
summary lists each statement none of whose lines ran, with its source line.
A statement is a simple statement, or the header of a compound one or of
an except clause; docstrings, try and global statements are left out, as
they run no line of their own.

Processes forked by sim.deviation_report's workers are not traced: what
runs only in them is listed.  The trace slows Tier-1 three to five times,
to 3.5-6 min on a shared 2-vCPU host.
pytest does not collect this file; run it from the repository root.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ladylake"


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of a module that can run a line:
    a simple statement's lines, a compound statement's or an except clause's
    header, decorators included."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or isinstance(node, (ast.Try, ast.Global)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        spans.append((first, max(first, body[0].lineno - 1 if body else node.end_lineno)))
    return sorted(spans)


class LineTrace:
    """The lines run in src/ladylake's frames between start and the summary."""

    def __init__(self) -> None:
        self.hit: set[tuple[str, int]] = set()  # (co_filename, line), the file name as imported

    def start(self) -> None:
        hit, traced, prefix = self.hit, {}, str(SRC) + os.sep  # traced: co_filename -> in SRC

        def local(frame, event, arg):
            if event == "line":
                hit.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def call(frame, event, arg):
            name = frame.f_code.co_filename
            keep = traced.get(name)
            if keep is None:
                keep = traced[name] = os.path.abspath(name).startswith(prefix)
            return local if keep else None

        threading.settrace(call)
        sys.settrace(call)

    def missed(self) -> list[str]:
        """'module.py:line  source' for each statement that no traced line fell in."""
        out, hit = [], {(os.path.abspath(name), n) for name, n in self.hit}
        for path in sorted(SRC.glob("*.py")):
            source, name = path.read_text(encoding="utf-8"), str(path)
            lines = source.splitlines()
            for first, last in statements(source):
                if not any((name, n) in hit for n in range(first, last + 1)):
                    out.append(f"{path.name}:{first}  {lines[first - 1].strip()}")
        return out

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        lines = self.missed()
        terminalreporter.section(f"statements of src/ladylake never executed: {len(lines)}")
        for line in lines:
            terminalreporter.write_line(line)


def pytest_configure(config):
    trace = LineTrace()
    config.pluginmanager.register(trace, "line_trace_lines")
    trace.start()


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(sys.argv[1:] or ["-q", "--continue-on-collection-errors"], plugins=[sys.modules[__name__]]))
