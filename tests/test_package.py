"""What importing the package does to the process."""

import ctypes
import importlib
import sys

import pytest

PR_GET_THP_DISABLE = 42  # prctl(2) option


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
def test_import_turns_transparent_huge_pages_off():
    importlib.import_module("gridpose")
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    assert prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0) == 1
