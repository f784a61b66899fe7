"""Shared test fixtures."""

import pytest

from cdlab.network import ScheduleSpec


@pytest.fixture
def two_matching_ring():
    """ScheduleSpec factory: an n-node ring split into two alternating perfect
    matchings, 2 nonzeros per row of each factor (n even)."""

    def spec(n: int) -> ScheduleSpec:
        odd = tuple((i, i + 1) for i in range(1, n, 2))
        even = tuple((i, i + 1) for i in range(2, n, 2)) + ((n, 1),)
        return ScheduleSpec(n_nodes=n, topology="alternating-links", link_cycle=(odd, even))

    return spec
