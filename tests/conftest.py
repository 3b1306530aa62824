import pytest

from ledasig import get_instance, keypair_from_seed, toy_params


@pytest.fixture(scope="session")
def toy29_key():
    prm = toy_params("toy29")
    return keypair_from_seed(b"\x2a" * 32, prm)


@pytest.fixture(scope="session")
def toy13_key():
    prm = toy_params("toy13")
    return keypair_from_seed(b"\x13" * 32, prm)


@pytest.fixture(scope="session")
def a3_key():
    prm = get_instance("a3")
    return keypair_from_seed(bytes(range(32)), prm)
