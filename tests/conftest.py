import pytest

from ccpnet import dataio


@pytest.fixture(scope="session")
def paper_market():
    """Default 20-dealer mirrored market with the five standard scenarios."""
    return dataio.build_market(dataio.RunConfig())


@pytest.fixture(scope="session")
def paper_market_t3():
    """The default market with t3 credit shocks under copula correlation 0.1."""
    rc = dataio.RunConfig(rho=0.1, marginals={"credit": "t3"})
    config, scenarios, _ = dataio.build_market(rc)
    return config, scenarios
