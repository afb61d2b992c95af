import json
from pathlib import Path

from hypothesis import strategies as st

from rimhook import enumerate_partitions

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


def cells(p) -> frozenset:
    """The (row, col) cells of the Ferrers diagram of `p`, 1-based."""
    return frozenset((i, j) for i, row in enumerate(p, 1) for j in range(1, row + 1))


def partitions_of(n: int):
    return st.sampled_from(list(enumerate_partitions(n)))


# Any partition of weight 0..8, weights equally likely.
partitions = st.integers(min_value=0, max_value=8).flatmap(partitions_of)
nonempty_partitions = st.integers(min_value=1, max_value=8).flatmap(partitions_of)

# Any decoded JSON value; integers are unbounded, so huge coordinates occur.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)
