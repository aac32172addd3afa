"""Public API: every exported name resolves."""

import blochpacket


def test_all_names_resolve():
    missing = [name for name in blochpacket.__all__ if not hasattr(blochpacket, name)]
    assert not missing
    assert len(set(blochpacket.__all__)) == len(blochpacket.__all__)


def test_star_import():
    namespace = {}
    exec("from blochpacket import *", namespace)
    assert set(blochpacket.__all__) <= set(namespace)
