import gridcast


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from gridcast import *", namespace)
    assert set(gridcast.__all__) <= set(namespace)
