"""Packaging metadata: the distribution version is ``repro.__version__``."""

import pathlib
import re
import warnings

import pytest

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_declares_version_dynamic_from_the_package():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^version\s*=", project, re.M), (
        "a static [project] version drifts from repro.__version__"
    )
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    dynamic = text.split("\n[tool.setuptools.dynamic]\n", 1)[1]
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
        dynamic, re.M,
    )


def test_setuptools_resolves_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(str(PYPROJECT),
                                                  expand=True)
    assert config["project"]["version"] == repro.__version__
