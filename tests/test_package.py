"""Package metadata."""

import pathlib
import re

import bsqs


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text().split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert bsqs.__version__ == declared
