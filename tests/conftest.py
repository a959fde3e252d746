from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from generators import er_graph, worked_example_graph  # noqa: E402


# Items that are not exactly one pair of int64 ids, which from_edges and
# Summary refuse: a flat id stream read two at a time would take the first
# case as the pairs (0, 1), (2, 3).
MALFORMED_PAIRS = {
    "triple-then-single": [(0, 1, 2), (3,)],
    "triple": [(0, 1, 2)],
    "single": [(0,)],
    "non-iterable": [(0, 1), 5],
    "past-int64": [(0, 2**63)],
}


@st.composite
def random_graphs(draw, min_n=1, max_n=30, max_p=0.6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=max_p))
    seed = draw(st.integers(min_value=0, max_value=9999))
    return er_graph(n, p, seed)


@pytest.fixture
def worked_example():
    return worked_example_graph()


@pytest.fixture
def worked_example_file(tmp_path):
    """The worked-example graph as an edge-list file, lines ordered so that
    loading reproduces the construction ids exactly."""
    from generators import WORKED_EXAMPLE_EDGES

    path = tmp_path / "worked_example.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in WORKED_EXAMPLE_EDGES), encoding="ascii")
    return path
