"""Legacy setup shim.

All metadata lives in ``pyproject.toml``.  A PEP 660 editable install
(``pip install -e .``) builds a wheel, so it needs the ``wheel`` package
(or setuptools >= 70.1).  Where neither is at hand and nothing can be
downloaded, this shim keeps the classic path open:
``python setup.py develop --no-deps`` installs the same metadata without
building a wheel.
"""

from setuptools import setup

setup()
