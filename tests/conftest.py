"""Fixtures shared by the test modules."""

import pytest

from nisets.scanner import _Tables
from nisets.trees import TREE_ORDER_LIMIT


@pytest.fixture(scope="session")
def order_limit_tables():
    """The sweep tables of ``TREE_ORDER_LIMIT``, caps included: the largest
    the package builds, built once for every test that reads them."""
    return _Tables(TREE_ORDER_LIMIT, True)
