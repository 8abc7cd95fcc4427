import re
from pathlib import Path

import ladylake


def test_version_matches_pyproject():
    # A regex rather than tomllib, which Python 3.10 lacks.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert ladylake.__version__ == match.group(1)
