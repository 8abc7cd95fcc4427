"""Spans, percentiles and run context for the ladylake benchmark.

Spans are recorded only by the benchmark's own code, around its calls into
the package's modules.  They are kept in memory and written out once, when
the traced run ends.
"""
from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter_ns


class Span:
    """One timed call into a layer.

    ``layer`` is the package module the call enters (``bench`` for the
    benchmark's own grouping spans).  ``probe`` marks spans made by the fixed
    probes rather than by the workload.
    """

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "attrs", "probe")

    def __init__(self, sid, parent, name, layer, probe):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = perf_counter_ns()
        self.end = self.start
        self.attrs = {}
        self.probe = probe

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start,
            "end_ns": self.end,
            "probe": self.probe,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Collects spans and their parent links for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.probe = False

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self.probe)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter_ns()
        return span

    def close(self, span: Span) -> Span:
        span.end = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; an exception is recorded and re-raised."""
        span = self.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)
        return out, span

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the part its child spans cover."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0) + s.dur_ns
        return {s.id: s.dur_ns - child.get(s.id, 0) for s in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_context(root: Path, seed: int) -> dict:
    """Machine and code identity recorded next to every result."""
    import numpy

    # The ceiling keeps git from looking above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True, env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


def source_digest(src: Path) -> str:
    """Hash of the package sources, identifying the code when git is absent."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
