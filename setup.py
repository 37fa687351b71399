"""Setup shim.

Kept for tools that still run ``setup.py`` directly (``python setup.py
--name``) and for pip versions without PEP 660 editable installs; all
metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
