"""Shim for ``python setup.py develop``; the metadata is in pyproject.toml."""

from setuptools import setup

setup()
