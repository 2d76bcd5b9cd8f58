import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wristkit


def test_every_exported_name_resolves():
    missing = [name for name in wristkit.__all__ if not hasattr(wristkit, name)]
    assert missing == []
    assert len(set(wristkit.__all__)) == len(wristkit.__all__)


def test_star_import():
    namespace = {}
    exec("from wristkit import *", namespace)
    assert set(wristkit.__all__) <= namespace.keys()


def test_every_exported_name_is_its_home_modules_object():
    for name in wristkit.__all__:
        value = getattr(wristkit, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("wristkit."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_exported_name():
    assert set(wristkit.__all__) <= set(dir(wristkit))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'wristkit' has no attribute 'no_such_name'"):
        wristkit.no_such_name


def test_a_bare_import_runs_no_submodule():
    code = ("import sys, types, wristkit\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if name.startswith('wristkit.') and type(module) is types.ModuleType),\n"
            "      'numpy' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[] False\n"), done.stderr
