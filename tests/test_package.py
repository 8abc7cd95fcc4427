import importlib
import pkgutil
import re
from pathlib import Path

import ladylake


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
