"""The move-expansion kernel against an oracle that applies moves one by one."""

import random
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from knotfield import kernels
from knotfield.mosaic import Mosaic, enumerate_mosaics, random_mosaic
from knotfield.moves import apply, default_table
from knotfield.orbits import compile_instances

from oracles import expand_level, oracle_expand


def _triples(level):
    """expand_level's three parallel lists as (source, instance, neighbor)
    triples."""
    return list(zip(*level))

TABLE = default_table()
INSTS = {n: compile_instances(TABLE, n)[0] for n in range(1, 7)}
PACKED = {n: compile_instances(TABLE, n)[1:] for n in range(1, 7)}
TABLES = {n: kernels.window_tables(*PACKED[n]) for n in range(1, 7)}


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
        got = _triples(expand_level([bytes(s.cells) for s in frontier], TABLES[n]))
    assert [(i, nb) for i, _, nb in got] == want
    # The instance index names the move that maps the source to the neighbor.
    for i, k, nb in got:
        assert bytes(apply(INSTS[n][k], frontier[i]).cells) == nb


def _assert_level_matches_oracle(n, frontier):
    """expand_level on a whole level against oracle_expand state by state;
    returns the level's neighbors."""
    got = _triples(expand_level([bytes(m.cells) for m in frontier], TABLES[n]))
    want = [(i, nb) for i, m in enumerate(frontier) for nb in oracle_expand(m, TABLE)]
    assert [(i, nb) for i, _, nb in got] == want
    for i, k, nb in got:
        assert bytes(apply(INSTS[n][k], frontier[i]).cells) == nb
    return [nb for _, nb in want]


def _bfs_levels_match_oracle(start, budget):
    """Every BFS level from `start`, until the orbit closes or passes `budget`
    members (the last level cut to fit it), matches the oracle."""
    seen = {bytes(start.cells)}
    level = [start]
    while level:
        fresh = []
        for nb in _assert_level_matches_oracle(start.n, level):
            if nb not in seen and len(seen) < budget:
                seen.add(nb)
                fresh.append(Mosaic(start.n, tuple(nb)))
        level = fresh
    return len(seen)


def test_expand_level_matches_oracle_on_bfs_levels():
    circle4 = Mosaic(4, (0,) * 10 + (2, 1, 0, 0, 3, 4))
    assert _bfs_levels_match_oracle(circle4, 10 ** 6) == 1348
    circle5 = Mosaic(5, (0,) * 6 + (2, 1, 0, 0, 0, 3, 4) + (0,) * 12)
    assert _bfs_levels_match_oracle(circle5, 300) == 300


def test_expand_matches_oracle_on_a_shared_window_code():
    # A 2x2 pattern of several templates: one window code, several moves.
    by_pattern = {}
    for t in TABLE:
        if (t.rows, t.cols) == (2, 2):
            for pat in (t.pattern_a, t.pattern_b):
                by_pattern.setdefault(pat, []).append(t)
    pattern = max(by_pattern, key=lambda pat: len(by_pattern[pat]))
    assert len(by_pattern[pattern]) >= 2
    m = Mosaic(2, pattern)
    assert len(kernels.expand(bytes(m.cells), *PACKED[2])) >= 2
    _assert_level_matches_oracle(2, [m])


def test_byte_above_10_matches_nothing():
    # Were bytes code digits as they stand, (a, b, c - 1, d + 12) would carry
    # into the code of the pattern (a, b, c, d).
    t = next(t for t in TABLE if (t.rows, t.cols) == (2, 2) and t.pattern_a[2] >= 1)
    a, b, c, d = t.pattern_a
    m = Mosaic(2, (a, b, c - 1, d + 12))
    assert kernels.expand(bytes(m.cells), *PACKED[2]) == oracle_expand(m, TABLE) == []


def test_bytes_outside_the_window_are_kept():
    # A move adds its delta row, which is 0 off the instance's cells, so a
    # byte there, one above 10 included, comes through unchanged.
    t = next(t for t in TABLE if (t.rows, t.cols) == (2, 2))
    a, b, c, d = t.pattern_a
    m = Mosaic(3, (a, b, 200, c, d, 255, 11, 12, 13))
    got = kernels.expand(bytes(m.cells), *PACKED[3])
    assert got == oracle_expand(m, TABLE) and got
    for nb in got:
        assert nb[2] == 200 and nb[5:] == bytes([255, 11, 12, 13])


def test_expand_level_without_3x3_windows():
    # n = 1 fits no move at all, n = 2 only the 2x2 ones.
    assert len(INSTS[1]) == 0
    assert {(inst.template.rows, inst.template.cols) for inst in INSTS[2]} == {(2, 2)}
    for n in (1, 2):
        _assert_level_matches_oracle(n, list(enumerate_mosaics(n)))


def test_window_tables_read_only():
    # Callers share one value of the tables, the empty one at n = 1 included.
    assert TABLES[1].n_inst == 0 and TABLES[4].n_inst == 1320
    for tables in TABLES.values():
        assert not any(arr.flags.writeable for arr in tables[1:])
    assert expand_level([bytes(1)], TABLES[1]) == ([], [], [])


def test_expand_level_memory_is_bounded():
    rng = random.Random(0)
    frontier = [bytes(random_mosaic(5, rng).cells) for _ in range(3000)]
    tracemalloc.start()
    try:
        out = expand_level(frontier, TABLES[5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = _triples(out)
    assert len(out) > 5 * len(frontier)
    # About 5 MB, most of it the returned neighbors; one unchunked gather
    # over the whole frontier peaks above 30 MB.
    assert peak < 8 * 2 ** 20
