"""Legacy setup shim: enables `pip install -e .` without the `wheel` package."""

from setuptools import setup

setup()
