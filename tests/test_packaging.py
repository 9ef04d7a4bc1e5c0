"""The package metadata: pyproject.toml takes the version from the package."""

import pytest

from conftest import REPO_ROOT

tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_version_is_read_from_the_package():
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" in config["project"]["dynamic"]
    assert "version" not in config["project"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "stigmagame.__version__"}
