import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run slow corpus/oracle tests")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running corpus test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def connected8():
    """The connected graphs on 1..8 vertices, enumerated once for every
    slow test that reads them."""
    from distideal.graph import enumerate_connected
    return list(enumerate_connected(8))
