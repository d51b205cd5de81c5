import popabc


def test_every_export_resolves():
    namespace = {}
    exec("from popabc import *", namespace)  # AttributeError on a name left in __all__
    assert set(popabc.__all__) <= set(namespace)
