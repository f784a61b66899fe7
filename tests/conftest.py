"""Shared test fixtures."""

import json

import pytest

from cdlab.network import ScheduleSpec, build_schedule
from corpus import write_artifacts


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """corpus_run(name) -> the directory ``corpus.write_artifacts`` filled for a corpus
    scenario: its ``analyze`` and golden ``simulate`` artifacts, written once a session."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = write_artifacts(name, tmp_path_factory.mktemp(name))
        return cache[name]

    return run


@pytest.fixture
def two_matching_ring():
    """ScheduleSpec factory: an n-node ring split into two alternating perfect
    matchings, 2 nonzeros per row of each factor (n even)."""

    def spec(n: int) -> ScheduleSpec:
        odd = tuple((i, i + 1) for i in range(1, n, 2))
        even = tuple((i, i + 1) for i in range(2, n, 2)) + ((n, 1),)
        return ScheduleSpec(n_nodes=n, topology="alternating-links", link_cycle=(odd, even))

    return spec


@pytest.fixture
def irregular64():
    """A 64-node ring with chords, edges kept at random per step (period 4):
    rows hold 1 to 4 nonzeros, so its factors are padded and short rows pad."""
    edges = [(i, i % 64 + 1) for i in range(1, 65)] + [(i, i + 32) for i in range(1, 33)]
    return build_schedule(ScheduleSpec(n_nodes=64, topology="random-subgraph", edges=tuple(edges), period=4, seed=3, keep_prob=0.6))


@pytest.fixture
def ring_config(tmp_path, two_matching_ring):
    """Config file factory: the n-node two-matching ring, checkpoints doubling up to k_max."""

    def write(n: int, k_max: int) -> str:
        spec = two_matching_ring(n)
        data = {
            "name": f"ring{n}",
            "model": {"m0": [0.0] * n, "m1": [0.3] * n, "covariance": "exponential(0.5)"},
            "network": {
                "topology": "alternating-links",
                "link_cycle": [[list(edge) for edge in step] for step in spec.link_cycle],
            },
            "experiment": {"checkpoints": [2**j for j in range(k_max.bit_length()) if 2**j <= k_max]},
        }
        path = tmp_path / f"ring{n}.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write
