import wristkit


def test_every_exported_name_resolves():
    missing = [name for name in wristkit.__all__ if not hasattr(wristkit, name)]
    assert missing == []
    assert len(set(wristkit.__all__)) == len(wristkit.__all__)


def test_star_import():
    namespace = {}
    exec("from wristkit import *", namespace)
    assert set(wristkit.__all__) <= namespace.keys()
