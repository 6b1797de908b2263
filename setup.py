"""Setup shim: enables legacy editable installs (`python setup.py develop`)
in offline environments that lack the `wheel` package.  All real metadata
lives in pyproject.toml's ``[project]`` table."""

from setuptools import setup

setup()
