"""The package's public surface."""

import bitrades


def test_every_exported_name_resolves():
    missing = [name for name in bitrades.__all__ if not hasattr(bitrades, name)]
    assert not missing
    assert len(set(bitrades.__all__)) == len(bitrades.__all__)
    namespace: dict = {}
    exec("from bitrades import *", namespace)
    assert set(bitrades.__all__) <= namespace.keys()
