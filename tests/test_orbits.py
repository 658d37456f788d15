"""Orbit closure under the move table, with pinned sizes for the 4x4 lattice."""

import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from knotfield import kernels
from knotfield.errors import BudgetExceededError, KnotfieldError
from knotfield.mosaic import Mosaic, decode, encode, random_mosaic
from knotfield.moves import apply, default_table
from knotfield.orbits import DEFAULT_BUDGET, compile_instances, orbit, same_orbit

from oracles import oracle_orbit, oracle_witness

TABLE = default_table()

CIRCLE3 = Mosaic(3, (2, 1, 0, 3, 4, 0, 0, 0, 0))
CIRCLE4 = Mosaic(4, (2, 1, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
CIRCLE5 = Mosaic(5, (0,) * 6 + (2, 1, 0, 0, 0, 3, 4) + (0,) * 12)

# A second trefoil mosaic reached from the fixture by one planar move.
TREFOIL_PARTNER = "4\n2 5 1 0\n6 2 9 1\n3 9 10 4\n0 3 4 0\n"


def test_blank_orbit_is_trivial():
    orb = orbit(Mosaic(4, (0,) * 16), TABLE)
    assert orb.size == 1


def test_circle3_orbit_pinned():
    assert orbit(CIRCLE3, TABLE).size == 19


def test_circle4_orbit_pinned():
    assert orbit(CIRCLE4, TABLE).size == 1348


def test_trefoil_orbit_pinned(trefoil):
    orb = orbit(trefoil, TABLE)
    assert orb.size == 2
    assert decode(TREFOIL_PARTNER) in orb


def test_orbit_members_are_valid_encodings(trefoil):
    orb = orbit(trefoil, TABLE)
    for key in orb.members:
        assert encode(decode(key)) == key


def _no_text(_m):
    raise AssertionError("orbit built member text")


def test_same_orbit_with_witness(trefoil, monkeypatch):
    # Closure, size, membership and witnesses of mosaics never build text.
    monkeypatch.setattr("knotfield.orbits.encode", _no_text)
    partner = decode(TREFOIL_PARTNER)
    same, witness = same_orbit(trefoil, partner, TABLE)
    assert same
    orb = orbit(trefoil, TABLE)
    assert orb.size == 2 and partner in orb and CIRCLE4 not in orb
    assert orb.witness_for(partner) == witness
    # Replaying the witness from the orbit representative lands on partner.
    state = orb.representative
    for inst in witness:
        state = apply(inst, state)
    assert state == partner


@pytest.mark.parametrize("name", ["circle3", "trefoil", "fig8"])
def test_witness_matches_oracle(name, request):
    m = CIRCLE3 if name == "circle3" else request.getfixturevalue(name)
    orb = orbit(m, TABLE)
    for k in orb.member_mosaics():
        assert orb.witness_for(k) == oracle_witness(orb._parents, k, TABLE)


def test_witness_matches_oracle_circle4():
    orb = orbit(CIRCLE4, TABLE)
    rows = random.Random(0).sample(list(orb._parents), 200)
    for row in rows:
        k = Mosaic(4, tuple(row))
        assert orb.witness_for(k) == oracle_witness(orb._parents, k, TABLE)


def test_witness_takes_the_first_of_two_moves_to_one_state():
    # Under the default table one move joins each parent to each child; a
    # copy of every template under another name makes two, and the witness
    # names the first, as the BFS kept it.
    twins = list(TABLE) + [dataclasses.replace(t, name=t.name + "-twin") for t in TABLE]
    orb = orbit(CIRCLE3, twins)
    assert list(orb._parents.items()) == list(orbit(CIRCLE3, TABLE)._parents.items())
    for k in orb.member_mosaics():
        witness = orb.witness_for(k)
        assert witness == oracle_witness(orb._parents, k, twins)
        assert not any(inst.template.name.endswith("-twin") for inst in witness)


def test_label_is_first_member_text(trefoil, monkeypatch):
    orb = orbit(CIRCLE4, TABLE)
    want = min(orb.members)  # the text of every member, built before counting
    assert want != encode(orb.representative)
    calls = []
    monkeypatch.setattr("knotfield.orbits.encode", lambda m: calls.append(m) or encode(m))
    assert orb.label == want and orb.label == want
    assert len(calls) == 1
    monkeypatch.undo()
    orb = orbit(trefoil, TABLE)
    assert orb.label == min(orb.members)


def test_unknot_and_trefoil_disjoint(trefoil):
    same, witness = same_orbit(trefoil, CIRCLE4, TABLE)
    assert not same
    assert witness is None
    orb = orbit(trefoil, TABLE)
    assert "garbage" not in orb
    assert encode(CIRCLE4) not in orb
    assert Mosaic(4, (300,) * 16) not in orb
    for stranger in (CIRCLE4, encode(CIRCLE4), "garbage"):
        with pytest.raises(KnotfieldError):
            orb.witness_for(stranger)


def _assert_shortest_witness(orb, b):
    """same_orbit(representative, b) says yes with a witness that replays
    the representative -> b and is as short as the orbit's BFS witness."""
    a = orb.representative
    same, witness = same_orbit(a, b, TABLE)
    assert same
    state = a
    for inst in witness:
        state = apply(inst, state)
    assert state == b
    assert len(witness) == len(orb.witness_for(b))


@pytest.mark.parametrize("name", ["circle3", "trefoil", "fig8"])
def test_same_orbit_witness_is_shortest(name, request):
    orb = orbit(CIRCLE3 if name == "circle3" else request.getfixturevalue(name), TABLE)
    for b in orb.member_mosaics():
        _assert_shortest_witness(orb, b)


def test_same_orbit_witness_is_shortest_circle4():
    orb = orbit(CIRCLE4, TABLE)
    for row in random.Random(1).sample(list(orb._parents), 200):
        _assert_shortest_witness(orb, Mosaic(4, tuple(row)))


def test_different_orbits_decided_whichever_is_smaller(trefoil):
    # The trefoil's 2-member orbit runs out of frontier first, whichever
    # side it is on, before the circle's 1,348 members are all reached.
    assert same_orbit(CIRCLE4, trefoil, TABLE) == (False, None)
    for a, b in ((trefoil, CIRCLE4), (CIRCLE4, trefoil)):
        assert same_orbit(a, b, TABLE, budget=50) == (False, None)
    with pytest.raises(BudgetExceededError):
        orbit(CIRCLE4, TABLE, budget=50)


def _walk(m, seed, steps):
    """A seeded random walk of `steps` moves from m."""
    _, *packed = compile_instances(TABLE, m.n)
    rng = random.Random(seed)
    state = bytes(m.cells)
    for _ in range(steps):
        state = rng.choice(kernels.expand(state, *packed))
    return Mosaic(m.n, tuple(state))


def test_same_orbit_decides_without_closing_the_orbit():
    far = _walk(CIRCLE5, 0, 40)
    same, witness = same_orbit(CIRCLE5, far, TABLE, budget=5000)
    assert same and 0 < len(witness) <= 40
    state = CIRCLE5
    for inst in witness:
        state = apply(inst, state)
    assert state == far
    with pytest.raises(BudgetExceededError):
        orbit(CIRCLE5, TABLE, budget=5000)


def test_same_orbit_budget_counts_both_searches(trefoil):
    # a and b are held from the start, even when they are one mosaic.
    with pytest.raises(BudgetExceededError) as got:
        same_orbit(trefoil, trefoil, TABLE, budget=1)
    assert got.value.seen == 2
    assert same_orbit(trefoil, trefoil, TABLE, budget=2) == (True, [])
    # The partner, reached from the trefoil, is held by b's search: it ends
    # the search before it is counted.
    partner = decode(TREFOIL_PARTNER)
    want = orbit(trefoil, TABLE).witness_for(partner)
    assert same_orbit(trefoil, partner, TABLE, budget=2) == (True, want)


@pytest.mark.parametrize("budget", [300, 1000])
def test_same_orbit_budget_stops_at_the_member_past_it(budget):
    with pytest.raises(BudgetExceededError) as got:
        same_orbit(CIRCLE5, _walk(CIRCLE5, 0, 40), TABLE, budget=budget)
    assert got.value.seen == budget + 1


@pytest.mark.parametrize("mangle", [
    lambda t: t,
    lambda t: t.replace("\n", " \n"),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: "0" + t,
    lambda t: t[:-1],
])
def test_text_membership_needs_canonical_label(trefoil, mangle):
    orb = orbit(trefoil, TABLE)
    text = mangle(encode(trefoil))
    assert (text in orb) == (text == encode(trefoil))
    assert (mangle(TREFOIL_PARTNER) in orb) == (mangle(TREFOIL_PARTNER) == TREFOIL_PARTNER)


def test_different_sizes_rejected(trefoil):
    with pytest.raises(KnotfieldError):
        same_orbit(trefoil, CIRCLE3, TABLE)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        orbit(CIRCLE4, TABLE, budget=100)
    for budget in (0, -5):
        with pytest.raises(KnotfieldError, match="must be at least 1"):
            orbit(Mosaic(2, (0,) * 4), TABLE, budget=budget)


@functools.cache
def _oracle_parents(m):
    return oracle_orbit(m, TABLE, DEFAULT_BUDGET)


def _assert_same_bfs(m):
    orb = orbit(m, TABLE)
    want = _oracle_parents(m)
    assert list(orb._parents.items()) == list(want.items())
    assert orb.members == {encode(Mosaic(m.n, tuple(s))) for s in want}


@pytest.mark.parametrize("name", ["circle3", "circle4", "trefoil", "fig8"])
def test_bfs_order_matches_oracle(name, request):
    pinned = {"circle3": CIRCLE3, "circle4": CIRCLE4}
    _assert_same_bfs(pinned[name] if name in pinned else request.getfixturevalue(name))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_bfs_order_matches_oracle_3x3(seed):
    _assert_same_bfs(random_mosaic(3, random.Random(seed)))


def test_budget_seen_matches_oracle():
    with pytest.raises(BudgetExceededError) as want:
        oracle_orbit(CIRCLE5, TABLE, 300)
    with pytest.raises(BudgetExceededError) as got:
        orbit(CIRCLE5, TABLE, budget=300)
    assert got.value.seen == want.value.seen


def _chunks_expanded(monkeypatch):
    """Record (level, block, neighbors) for every chunk that orbit() reads
    from the kernel, in order."""
    chunks = []
    expand_chunks = kernels.expand_chunks

    def counting(states, tables):
        for chunk in expand_chunks(states, tables):
            chunks.append((states, chunk[0], chunk[3]))
            yield chunk

    monkeypatch.setattr(kernels, "expand_chunks", counting)
    return chunks


def _assert_chunked_bfs(m, chunk_pairs, witnesses):
    """orbit() with `chunk_pairs` per kernel chunk gives the oracle's parent
    map, in its insertion order, and witnesses for `witnesses` of its rows."""
    with mock.patch.object(kernels, "_CHUNK_PAIRS", chunk_pairs):
        orb = orbit(m, TABLE)
    want = _oracle_parents(m)
    assert list(orb._parents.items()) == list(want.items())
    for row in witnesses(list(want)):
        k = Mosaic(m.n, tuple(row))
        assert orb.witness_for(k) == oracle_witness(want, k, TABLE)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_chunked_closure_matches_oracle_3x3(seed, chunk_pairs):
    # A 3x3 lattice has 5 windows: 1-9 pairs expand one state per chunk,
    # 10-16 two or three.
    _assert_chunked_bfs(random_mosaic(3, random.Random(seed)), chunk_pairs, lambda rows: rows)


@pytest.mark.parametrize("chunk_pairs", [1, 27, 130])
def test_chunked_closure_matches_oracle_circle4(chunk_pairs):
    # A 4x4 lattice has 13 windows: one, two or ten states per chunk.
    _assert_chunked_bfs(CIRCLE4, chunk_pairs, lambda rows: random.Random(0).sample(rows, 50))


@pytest.mark.parametrize("chunk_pairs", [1, 50, 250])
def test_chunked_budget_stops_where_the_oracle_does(monkeypatch, chunk_pairs):
    # A 5x5 lattice has 25 windows: one, two or ten states per chunk.  The
    # states expanded follow the oracle's BFS order, and the last chunk
    # expanded holds the parent of member 301.
    chunks = _chunks_expanded(monkeypatch)
    with pytest.raises(BudgetExceededError) as want:
        oracle_orbit(CIRCLE5, TABLE, 300)
    monkeypatch.setattr(kernels, "_CHUNK_PAIRS", chunk_pairs)
    with pytest.raises(BudgetExceededError) as got:
        orbit(CIRCLE5, TABLE, budget=300)
    assert got.value.seen == want.value.seen == 301
    bfs = list(want.value.parents)
    expanded = [s for _, block, _ in chunks for s in block]
    assert expanded == bfs[:len(expanded)]
    assert want.value.parents[bfs[-1]] in chunks[-1][1]


def test_budget_fails_inside_the_level_that_crosses_it(monkeypatch):
    # Member 3,001 turns up while the fourth BFS level (1,270 states) is
    # expanded; the closure stops in the chunk that finds it, not at the end
    # of the level.
    chunks = _chunks_expanded(monkeypatch)
    with pytest.raises(BudgetExceededError) as got:
        orbit(CIRCLE5, TABLE, budget=3000)
    assert got.value.seen == 3001
    members = {bytes(CIRCLE5.cells)}
    for _, _, neighbors in chunks[:-1]:
        members.update(neighbors)
    assert len(members) <= 3000
    members.update(chunks[-1][2])
    assert len(members) > 3000
    level = chunks[-1][0]
    assert len(level) == 1270
    assert sum(len(block) for states, block, _ in chunks if states is level) < len(level)


@pytest.mark.parametrize("name", ["circle3", "trefoil"])
def test_member_rows_in_label_order(name, request):
    m = CIRCLE3 if name == "circle3" else request.getfixturevalue(name)
    orb = orbit(m, TABLE)
    rows = orb.member_rows()
    texts = [encode(Mosaic(m.n, tuple(r))) for r in rows.tolist()]
    assert texts == sorted(orb.members) and texts[0] == orb.label
    assert rows.shape == (orb.size, m.n * m.n) and not rows.flags.writeable


def test_compile_instances_cached_read_only():
    first = compile_instances(TABLE, 4)
    again = compile_instances(list(TABLE), 4)
    assert all(a is b for a, b in zip(first, again))
    assert not any(arr.flags.writeable for arr in first[1:])
    assert compile_instances(TABLE, 3)[1] is not first[1]
    assert compile_instances(TABLE[:-1], 4)[1] is not first[1]
    assert len(compile_instances(TABLE[:-1], 4)[0]) < len(first[0])


def test_templates_differing_only_in_pattern_b_get_their_own_tables():
    # Same name, shape and pattern_a: the cache still tells them apart.
    a, b = next((s, t) for s in TABLE for t in TABLE
                if s.pattern_a == t.pattern_a and s.pattern_b != t.pattern_b)
    twin = dataclasses.replace(b, name=a.name)
    assert twin != a and hash(twin) != hash(a)
    ours, theirs = compile_instances([a], 2), compile_instances([twin], 2)
    assert (ours[3] != theirs[3]).any() and (ours[2] == theirs[2]).all()


def test_window_tables_built_once_read_only():
    tables = orbit(CIRCLE3, TABLE)._packed[1]
    assert orbit(CIRCLE3, list(TABLE))._packed[1] is tables
    assert orbit(CIRCLE3, TABLE[:-1])._packed[1] is not tables
    assert not any(arr.flags.writeable for arr in tables[1:])


def test_orbit_closes_where_no_move_fits():
    # A 1x1 lattice fits no move: its instance and window tables are empty.
    blank = Mosaic(1, (0,))
    orb = orbit(blank, TABLE)
    assert orb.size == 1 and orb._packed[1].n_inst == 0
    assert orb.witness_for(blank) == []
    assert same_orbit(blank, blank, TABLE) == (True, [])
