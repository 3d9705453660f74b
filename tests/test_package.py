import importlib

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
