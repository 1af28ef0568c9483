"""Setuptools configuration for the reproduction package.

Kept deliberately minimal so ``pip install -e .`` works in offline
environments without ``wheel`` or network access.
"""
from setuptools import find_packages, setup

setup(
    name="repro-dispatch",
    version="1.6.0",
    description=("Reproduction of a food-delivery dispatch paper: batching, "
                 "matching, and city-scale routing infrastructure"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
