import random

import pytest
from hypothesis import given, settings, strategies as st

from knotfield.errors import KnotfieldError, MosaicParseError
from knotfield.mosaic import (
    CROSSING_TILES,
    Mosaic,
    decode,
    encode,
    enumerate_mosaics,
    from_json,
    label_key,
    load,
    random_mosaic,
    to_json,
    trace_components,
    validate,
)


def test_blank_is_valid():
    m = Mosaic(3, (0,) * 9)
    assert validate(m).valid
    assert trace_components(m) == []


def test_small_circle_one_component():
    m = Mosaic(2, (2, 1, 3, 4))
    assert validate(m).valid
    comps = trace_components(m)
    assert len(comps) == 1
    assert len(comps[0].passages) == 4


def test_mismatched_edge_reported():
    # A lone arc tile leaves two connection points dangling.
    m = Mosaic(2, (2, 0, 0, 0))
    rep = validate(m)
    assert not rep.valid
    assert len(rep.bad_edges) == 2


def test_boundary_connection_rejected():
    # Tile 5 (W-E line) at the left edge pokes the outer boundary.
    m = Mosaic(2, (5, 4, 2, 1))
    assert not validate(m).valid


def test_encode_decode_roundtrip(trefoil):
    assert decode(encode(trefoil)) == trefoil
    assert from_json(to_json(trefoil)) == trefoil
    assert load(to_json(trefoil)) == trefoil


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 10), min_size=n * n, max_size=n * n), max_size=30)
    .map(lambda rows: [Mosaic(n, tuple(r)) for r in rows])))
@settings(max_examples=200, deadline=None)
def test_label_key_sorts_like_encode(ms):
    # Tile ids sort as decimal strings in the text: 0 < 1 < 10 < 2 < ... < 9.
    assert [encode(m) for m in sorted(ms, key=lambda m: label_key(m.cells))] == \
        sorted(encode(m) for m in ms)


def test_decode_rejects_garbage():
    with pytest.raises(MosaicParseError):
        decode("not a mosaic")
    with pytest.raises(MosaicParseError):
        decode("2\n0 0\n0 99\n")
    with pytest.raises(KnotfieldError):
        Mosaic(2, (0, 0, 0))  # wrong cell count


def test_trefoil_fixture_shape(trefoil):
    assert trefoil.n == 4
    assert validate(trefoil).valid
    comps = trace_components(trefoil)
    assert len(comps) == 1
    assert sum(1 for t in trefoil.cells if t in CROSSING_TILES) == 3


def test_enumerate_small():
    # 1x1: only the blank tile survives (everything else touches the boundary).
    assert [m.cells for m in enumerate_mosaics(1)] == [(0,)]
    two = list(enumerate_mosaics(2))
    # blank and the single circle; double-arc tiles touch all four sides,
    # so in a 2x2 grid they always poke the outer boundary
    assert sorted(m.cells for m in two) == [(0, 0, 0, 0), (2, 1, 3, 4)]
    assert all(validate(m).valid for m in two)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_mosaic_always_valid(seed):
    m = random_mosaic(4, random.Random(seed))
    assert m.n == 4
    assert validate(m).valid


def test_random_mosaic_deterministic():
    a = random_mosaic(5, random.Random(7))
    b = random_mosaic(5, random.Random(7))
    assert a == b
