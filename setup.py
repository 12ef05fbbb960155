"""Packaging metadata: the ``repro`` package, its C kernel source, its CLI.

Everything is declared here (there is no ``pyproject.toml``), so a legacy
editable install (``pip install -e . --no-use-pep517``) works in offline
environments that lack the ``wheel`` package PEP 660 editable builds need.
The package has no third-party run-time dependencies.
"""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    """``repro.__version__``, read as text: setup must not import the package."""
    path = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ line in {path}")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description="Reproduction of 'Scalable Routing on Flat Names' (Disco)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # Compiled on first use by repro.graphs._ckernels.
    package_data={"repro.graphs": ["_kernels.c"]},
    python_requires=">=3.11",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
