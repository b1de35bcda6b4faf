"""Every name a ``repro`` module lists in ``__all__`` must exist, so
``from repro.<module> import *`` never raises."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    dangling = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                dangling.append(f"{info.name}.{name}")
    assert dangling == []
