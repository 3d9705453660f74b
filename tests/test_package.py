import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


# a representative input of every functools cache in the package
CACHE_INPUTS = {
    "diagnostics._cached_grid": (0.05, 1.5, 300),
    "qrng._direction_numbers": (),
    "qrng._raw_ints": (3, 64),
    "tost._cached_points": (64, 7, "sobol"),
    "tost._knot_table": (11.0,),
    "tost._t_table": (0.05, 10.0, 15.0),
    "tost._variance_brackets": (18.0, 10.0),
}


def arrays_in(value):
    """Every ndarray in value, nested in tuples included."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in arrays_in(item)]
    return []


def test_every_cache_hands_out_read_only_arrays():
    # a cached array is shared by every caller, so none may write to it
    caches = {f"{name}.{attr}": fn for name in MODULES
              for attr, fn in vars(importlib.import_module(
                  f"bepower.{name}")).items()
              if hasattr(fn, "cache_info")
              and fn.__module__ == f"bepower.{name}"}
    assert sorted(caches) == sorted(CACHE_INPUTS)
    for name, fn in caches.items():
        arrays = arrays_in(fn(*CACHE_INPUTS[name]))
        assert arrays, name
        writable = [i for i, arr in enumerate(arrays) if arr.flags.writeable]
        assert not writable, (name, writable)


CACHES = ("lru_cache", "cache")


def functools_caches(tree):
    """Every node of tree that names functools.lru_cache or
    functools.cache, an import from functools included."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            yield node
        elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
              and any(alias.name in CACHES for alias in node.names)):
            yield node


def test_caches_come_from_one_idiom():
    # every cache is a `qrng._shared_cache`, the one functools cache,
    # which hands out read-only arrays
    uses = []
    for path in sorted(Path(bepower.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = {node for fn in tree.body if path.name == "qrng.py"
                and isinstance(fn, ast.FunctionDef)
                and fn.name == "_shared_cache" for node in ast.walk(fn)}
        uses += [f"{path.name}:{node.lineno}"
                 for node in functools_caches(tree) if node not in home]
    assert not uses
