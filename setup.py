"""Packaging for the repro package (src layout).

Kept as a plain setup.py: this environment lacks the `wheel` package, so
PEP 660 editable installs fail; `pip install -e . --no-use-pep517` uses
this directly.

``numpy`` (>= 2.0, for ``np.bitwise_count``) is the one runtime dependency:
the window id-set index and its edge-correlation kernel, the per-quantum
extraction columns and the MinHash sketch kernel are array code (DESIGN.md
Section 9).  Everything else — the serving layer included — is
stdlib.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.7.0",
    description=(
        "Reproduction of 'Real Time Discovery of Dense Clusters in Highly "
        "Dynamic Graphs' (PVLDB 2012): streaming AKG maintenance and dense "
        "cluster detection"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    extras_require={
        # The serving layer (repro.serve / `repro serve`) is deliberately
        # stdlib-only: asyncio front door, hand-rolled HTTP + RFC 6455.
        # The empty marker documents that, and gives deployments a stable
        # name to pin should the layer ever grow optional accelerators.
        "serve": [],
    },
)
