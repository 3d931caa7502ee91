"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs fail; this file lets ``pip install -e .`` use the legacy
``setup.py develop`` path.  Metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
