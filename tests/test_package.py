import phiregret


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from phiregret import *", namespace)
    assert set(phiregret.__all__) <= set(namespace)
