import pytest

from trophom import poly


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    # dispatch_solve keeps target plans across calls; start each test
    # without them, so call counts and patched functions see every plan.
    poly._plan_dispatch.cache_clear()
