import importlib
import os
import subprocess
import sys
from pathlib import Path

import bepower

MODULES = ("crossover", "curve", "diagnostics", "oracle", "qrng", "special",
           "tost")


def test_all_is_the_union_of_the_modules_all():
    union = set()
    for name in MODULES:
        module = importlib.import_module(f"bepower.{name}")
        for public in module.__all__:
            assert getattr(bepower, public) is getattr(module, public)
        union.update(module.__all__)
    assert sorted(bepower.__all__) == sorted(union)
    assert len(bepower.__all__) == len(union)
    namespace = {}
    exec("from bepower import *", namespace)
    assert set(namespace) - {"__builtins__"} == union


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes over half of a fresh interpreter's import time;
    # the Sobol' points need only scipy's direction-number file
    code = ("import sys, bepower, bepower.cli; print(sorted(m for m in "
            "sys.modules if m.startswith('scipy.stats')))")
    env = dict(os.environ, PYTHONPATH=str(Path(bepower.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
