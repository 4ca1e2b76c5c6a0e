import importlib
import sys
from pathlib import Path

import thinspec

MODULES = sorted(p.stem for p in Path(thinspec.__file__).parent.glob("*.py") if p.stem != "__init__")


def test_package_attributes_are_its_submodules():
    # a root name equal to a module's (the `lattice` function once was) would shadow it
    assert "lattice" in MODULES
    for name in MODULES:
        importlib.import_module(f"thinspec.{name}")
        assert getattr(thinspec, name) is sys.modules[f"thinspec.{name}"], name
