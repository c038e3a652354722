"""The package's public surface: every exported name resolves, so that a
deleted function cannot stay exported."""

import heatbayes


def test_every_exported_name_resolves():
    missing = [name for name in heatbayes.__all__
               if not hasattr(heatbayes, name)]
    assert missing == []
    assert len(set(heatbayes.__all__)) == len(heatbayes.__all__)


def test_star_import():
    namespace = {}
    exec("from heatbayes import *", namespace)
    assert set(heatbayes.__all__) <= set(namespace)
