from setuptools import find_packages, setup

setup(
    name="repro-protea",
    version="1.0.0",
    description=(
        "Functional + cycle-level reproduction of ProTEA (programmable "
        "transformer encoder acceleration on FPGA), with a multi-instance "
        "serving simulator and SLO capacity planner on top"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # scipy: scipy.special.erf backs the GELU lookup table
    # (fixedpoint/lut.py) and the float reference (nn/functional.py).
    install_requires=["numpy>=1.22", "scipy>=1.8"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
