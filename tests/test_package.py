"""The package's public names."""

import tsadapt


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tsadapt import *", namespace)  # a stale name raises AttributeError
    assert set(tsadapt.__all__) <= namespace.keys()
    assert len(set(tsadapt.__all__)) == len(tsadapt.__all__)
