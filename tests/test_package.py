"""The package exports each module's public API, declared once in that module's __all__."""

import types

import addkrig
from addkrig import bench, estimate, gp, kernels

MODULES = (bench, estimate, gp, kernels)


def test_package_exports_the_union_of_the_module_lists():
    submodules = {n for n, v in vars(addkrig).items() if isinstance(v, types.ModuleType)}
    assert all(vars(addkrig)[n].__name__ == f"addkrig.{n}" for n in submodules)
    exported = {n for n in vars(addkrig) if not n.startswith("__")} - submodules
    declared = [n for m in MODULES for n in m.__all__]
    assert len(set(declared)) == len(declared)  # no name is declared by two modules
    assert exported == set(declared)
    assert isinstance(addkrig.__version__, str)


def test_every_declared_name_is_defined_in_its_module():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(addkrig, name) is getattr(m, name)
            assert getattr(m, name).__module__ == m.__name__, name
