"""Documentation quality gate: every public item carries a docstring.

"Doc comments on every public item" is a deliverable; this test keeps it
true as the code evolves.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.faults",
    "repro.simmpi",
    "repro.h5",
    "repro.pfs",
    "repro.diy",
    "repro.lowfive",
    "repro.baselines",
    "repro.workflow",
    "repro.cosmo",
    "repro.synth",
    "repro.perfmodel",
    "repro.bench",
    "repro.tools",
    "repro.stream",
    "repro.obs",
    "repro.analyze",
]


def iter_modules():
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__,
                                         prefix=pkg_name + "."):
            if info.name not in seen:
                seen.add(info.name)
                yield importlib.import_module(info.name)


def public_members(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue  # re-exports documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_has_docstring():
    missing = [m.__name__ for m in iter_modules() if not m.__doc__]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_has_docstring():
    missing = []
    for mod in iter_modules():
        for name, obj in public_members(mod):
            if not inspect.getdoc(obj):
                missing.append(f"{mod.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_public_methods_documented():
    missing = []
    for mod in iter_modules():
        for cname, cls in public_members(mod):
            if not inspect.isclass(cls):
                continue
            for mname, meth in vars(cls).items():
                if mname.startswith("_"):
                    continue
                if not (inspect.isfunction(meth)
                        or isinstance(meth, (property, staticmethod,
                                             classmethod))):
                    continue
                target = meth.fget if isinstance(meth, property) else meth
                target = getattr(target, "__func__", target)
                if not inspect.getdoc(target):
                    missing.append(f"{mod.__name__}.{cname}.{mname}")
    assert not missing, f"undocumented public methods: {missing}"


def test_every_all_name_resolves():
    """A deletion that leaves a dangling export fails here, not in a
    user's ``from repro.x import *``."""
    dangling = [f"{mod.__name__}.{name}" for mod in iter_modules()
                for name in getattr(mod, "__all__", ())
                if not hasattr(mod, name)]
    assert not dangling, f"__all__ names that do not resolve: {dangling}"
