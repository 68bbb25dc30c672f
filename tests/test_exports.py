"""The package's public names: every export resolves, and star-import works."""

import manetsim


def test_every_exported_name_resolves():
    missing = [name for name in manetsim.__all__ if not hasattr(manetsim, name)]
    assert missing == []
    assert len(manetsim.__all__) == len(set(manetsim.__all__))


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from manetsim import *", namespace)
    assert set(manetsim.__all__) <= set(namespace)
