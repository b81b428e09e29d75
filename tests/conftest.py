"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit of 1000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
