from setuptools import setup

# All packaging metadata lives in pyproject.toml -- including the
# optional "fast" extra (numpy) that accelerates the fleet sampler;
# this shim exists for legacy `setup.py` workflows.
setup()
