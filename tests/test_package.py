"""What importing the package does to the process, and what installing it
declares."""

import ctypes
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PR_GET_THP_DISABLE = 42  # prctl(2) option


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
def test_import_turns_transparent_huge_pages_off():
    importlib.import_module("gridpose")
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    assert prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0) == 1


def test_every_console_script_target_imports():
    # an installed command whose module or function is missing fails at start
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function)), name
