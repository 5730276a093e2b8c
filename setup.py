"""Packaging metadata (version is read from ``repro.__version__``)."""

import pathlib
import re

from setuptools import find_packages, setup

_HERE = pathlib.Path(__file__).parent
_INIT = _HERE / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)
_README = _HERE / "README.md"

setup(
    name="repro-deepweb",
    version=_VERSION,
    description=(
        "Reproduction of 'Harnessing the Deep Web: Present and Future' "
        "(CIDR 2009): staged deep-web surfacing over a simulated web"
    ),
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
