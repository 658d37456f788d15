"""The move-expansion kernel against an oracle that applies moves one by one."""

import random
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from knotfield import kernels
from knotfield.mosaic import random_mosaic
from knotfield.moves import apply, default_table
from knotfield.orbits import compile_instances

from oracles import oracle_expand

TABLE = default_table()
INSTS = {n: compile_instances(TABLE, n)[0] for n in range(1, 7)}
PACKED = {n: compile_instances(TABLE, n)[1:] for n in range(1, 7)}


@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_expand_matches_oracle(n, seed):
    m = random_mosaic(n, random.Random(seed))
    assert kernels.expand(bytes(m.cells), *PACKED[n]) == oracle_expand(m, TABLE)


@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 10_000),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_expand_level_matches_oracle(n, size, chunk_pairs, seed):
    rng = random.Random(seed)
    frontier = [random_mosaic(n, rng) for _ in range(size)]
    want = [(i, nb) for i, s in enumerate(frontier) for nb in oracle_expand(s, TABLE)]
    # A small chunk bound splits the frontier into several chunks.
    with mock.patch.object(kernels, "_CHUNK_PAIRS", chunk_pairs):
        got = kernels.expand_level([bytes(s.cells) for s in frontier], *PACKED[n])
    assert [(i, nb) for i, _, nb in got] == want
    # The instance index names the move that maps the source to the neighbor.
    for i, k, nb in got:
        assert bytes(apply(INSTS[n][k], frontier[i]).cells) == nb


def test_expand_level_memory_is_bounded():
    rng = random.Random(0)
    frontier = [bytes(random_mosaic(5, rng).cells) for _ in range(3000)]
    tracemalloc.start()
    try:
        out = kernels.expand_level(frontier, *PACKED[5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) > 5 * len(frontier)
    # About 7 MB, most of it the returned neighbors; one unchunked gather
    # over the whole frontier peaks above 30 MB.
    assert peak < 8 * 2 ** 20
