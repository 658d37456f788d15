"""The move-expansion kernel against an oracle that applies moves one by one."""

import random

from hypothesis import given, settings, strategies as st

from knotfield import kernels
from knotfield.mosaic import random_mosaic
from knotfield.moves import default_table
from knotfield.orbits import compile_instances

from oracles import oracle_expand

TABLE = default_table()
PACKED = {n: compile_instances(TABLE, n)[1:] for n in range(2, 7)}


@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_expand_matches_oracle(n, seed):
    m = random_mosaic(n, random.Random(seed))
    assert kernels.expand(bytes(m.cells), *PACKED[n]) == oracle_expand(m, TABLE)
