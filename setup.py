"""Package metadata: `pip install -e .` makes `repro` importable without PYTHONPATH=src."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cluster-and-Conquer: KNN graph construction via FastRandomHash "
        "pre-clustering (reproduction of Giakkoupis et al., ICDE 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy>=1.10"],
)
