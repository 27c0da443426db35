"""Tests for tools/native_profile.py (the native-stack sampler)."""

import importlib.util
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "native_profile.py")
spec = importlib.util.spec_from_file_location("native_profile", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_no_compiler_is_a_clear_exit(monkeypatch, tmp_path):
    monkeypatch.setattr(tool.sysconfig, "get_config_var", lambda name: "no-such-cc -pthread")
    with pytest.raises(SystemExit, match="no C compiler found .*'no-such-cc'"):
        tool.build_helper(str(tmp_path))


def test_dict_probes_count_as_attribute_lookups_under_the_attribute_protocol():
    probe = ("libpython3.11.so", "unicodekeys_lookup_unicode")
    assert tool.leaf_category([probe, ("libpython3.11.so", "_Py_dict_lookup"),
                               ("libpython3.11.so", "_PyObject_GetMethod")]) == tool.ATTRIBUTE
    assert tool.leaf_category([probe, ("libpython3.11.so", "PyDict_GetItemWithError"),
                               ("_ckernel.so", "dict_ll")]) == tool.DICT
    assert tool.leaf_category([("_ckernel.so", "entry_lt")]) == "heap"
    assert tool.leaf_category([("_ckernel.so", "dict_ll")]) == tool.KERNEL_SELF


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux only")
def test_symbols_resolve_this_process_code():
    """A PC inside a function of the interpreter's library resolves to it."""
    import ctypes

    address = ctypes.cast(ctypes.pythonapi.PyLong_FromLong, ctypes.c_void_p).value
    obj, name = tool.Symbols().resolve(address)
    assert name == "PyLong_FromLong", (obj, name)
