"""The package namespace: sepdfa.__all__ names exactly its public API.

The API is what __init__.py imports, and __all__ is derived from those
imports.  perfbench/tracer.py traces the functions named in __all__, so
a name missing from it would silently drop out of the per-layer trace.
"""

import inspect

import sepdfa


def test_every_listed_name_resolves():
    missing = [name for name in sepdfa.__all__ if not hasattr(sepdfa, name)]
    assert missing == []
    assert len(set(sepdfa.__all__)) == len(sepdfa.__all__)


def test_every_public_function_and_class_is_listed():
    public = {name for name, value in vars(sepdfa).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert public - set(sepdfa.__all__) == set()
