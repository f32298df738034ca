"""Every distribution pyproject.toml declares, extras included, is installed,
and the package states the version pyproject declares.

A declared dependency that cannot be installed offline is dead weight: no
test runs the code that needs it.
"""
import re
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import pytest

import nutaxis

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_declared_distribution_is_installed():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    missing = []
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group()
        try:
            version(name)
        except PackageNotFoundError:
            missing.append(requirement)
    assert requirements and not missing, f"not installed: {missing}"


def test_the_package_version_is_the_declared_one():
    # manifests carry nutaxis.__version__, also when nutaxis runs from a
    # source checkout and no installed metadata names it
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == nutaxis.__version__
