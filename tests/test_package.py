"""Package-level checks: what each module exports."""

import importlib
import pkgutil

import pytest

import mmaprobe


def _modules_with_all():
    names = ["mmaprobe"] + [m.name for m in pkgutil.walk_packages(
        mmaprobe.__path__, "mmaprobe.")]
    return [n for n in names
            if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("name", _modules_with_all())
def test_every_exported_name_resolves(name):
    # No test imports with ``*``, so a name left in ``__all__`` after its
    # definition is deleted would otherwise go unnoticed.
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
