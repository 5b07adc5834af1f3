"""Fixtures shared by the test modules."""

import resource

import pytest


@pytest.fixture
def bounded_address_space():
    """Cap this process's address space at 64 GiB for one test, so that a
    request for terabytes fails at once under any kernel overcommit policy
    instead of being granted and then filled."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30 if hard == resource.RLIM_INFINITY else min(hard, 64 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
