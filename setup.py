"""Build script shim: all metadata lives in pyproject.toml.

Kept so that ``python setup.py develop`` works in offline environments
without the ``wheel`` package (see README.md, "Install").
"""

from setuptools import setup

setup()
