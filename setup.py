"""Legacy shim so `pip install -e .` works without the `wheel` package.

All real metadata lives in pyproject.toml.
"""
from setuptools import setup

setup()
