import json
import pathlib
import random
import runpy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import oracle_random_mosaic, oracle_trace_components, oracle_validate

import knotfield.rows
from knotfield.diagram import to_diagram
from knotfield.errors import KnotfieldError, MosaicParseError
from knotfield.mosaic import (
    CROSSING_TILES,
    SIDES,
    Mosaic,
    Strand,
    _edge_faults,
    _walk,
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
from knotfield.moves import default_table
from knotfield.orbits import orbit
from knotfield.rows import strand_counts, trace_rows

ROOT = pathlib.Path(__file__).resolve().parents[1]

# A representative of each multi-member 4x4 orbit class without crossings,
# by class size; the trefoil fixture's class has the other 2 members.
CLASSES_4X4 = {
    1348: (0,) * 10 + (2, 1, 0, 0, 3, 4),
    766: (0,) * 8 + (2, 1, 2, 1, 3, 4, 3, 4),
    172: (0,) * 5 + (2, 1, 0, 2, 7, 8, 1, 3, 4, 3, 4),
}
CIRCLE3 = Mosaic(3, (0, 0, 0, 0, 2, 1, 0, 3, 4))  # the 19-member 3x3 unknot class


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


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, 10), min_size=n * n, max_size=n * n)
    .map(lambda cells: Mosaic(n, tuple(cells)))))
@settings(max_examples=300, deadline=None)
def test_validate_matches_oracle(m):
    # Arbitrary rows are almost always invalid: every kind of fault shows.
    assert validate(m).bad_edges == oracle_validate(m)


def test_trace_matches_oracle_on_4x4_orbit_classes(trefoil):
    starts = [Mosaic(4, cells) for cells in CLASSES_4X4.values()] + [trefoil]
    orbits = [orbit(m, default_table()) for m in starts]
    assert [orb.size for orb in orbits] == list(CLASSES_4X4) + [2]
    for orb in orbits:
        for m in orb.member_mosaics():
            assert trace_components(m) == oracle_trace_components(m)


@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_trace_matches_oracle(n, seed):
    m = random_mosaic(n, random.Random(seed))
    assert trace_components(m) == oracle_trace_components(m)


def _row_strands(rows, n):
    """trace_rows' passages regrouped as each row's list of Strands, after
    checking that strands are numbered 0, 1, ... in order."""
    row, strand, cell, entry, exit_ = (a.tolist() for a in trace_rows(rows, n))
    assert strand == sorted(strand) and sorted(set(strand)) == list(range(len(set(strand))))
    out = [[] for _ in range(len(rows))]
    for j, s in enumerate(strand):
        if j == 0 or s != strand[j - 1]:
            out[row[j]].append([])
        out[row[j]][-1].append((cell[j], SIDES[entry[j]], SIDES[exit_[j]]))
    return [[Strand(tuple(p)) for p in strands] for strands in out]


def _assert_rows_trace_as_mosaics(rows, n):
    want = [trace_components(Mosaic(n, tuple(r))) for r in rows.tolist()]
    assert _row_strands(rows, n) == want
    row, strand, *_ = trace_rows(rows, n)
    assert strand_counts(row, strand, len(rows)).tolist() == [len(w) for w in want]


def test_trace_rows_matches_trace_on_orbit_classes(trefoil, fig8):
    # Every member of the 1348-, 766-, 172-, 80-, 19- and 2-member classes,
    # as each orbit's member rows.
    starts = [Mosaic(4, cells) for cells in CLASSES_4X4.values()] + [fig8, CIRCLE3, trefoil]
    orbits = [orbit(m, default_table()) for m in starts]
    assert [orb.size for orb in orbits] == list(CLASSES_4X4) + [80, 19, 2]
    for orb in orbits:
        _assert_rows_trace_as_mosaics(orb.member_rows(), orb.representative.n)


@pytest.mark.parametrize("chunk", [1, 1 << 14])
def test_trace_rows_on_every_4_mosaic(monkeypatch, chunk):
    # All 2,594 valid 4-mosaics in one batch; chunk 1 traces a row at a time.
    monkeypatch.setattr(knotfield.rows, "_TRACE_CHUNK", chunk)
    rows = np.array([m.cells for m in enumerate_mosaics(4)], dtype=np.uint8)
    assert len(rows) == 2594
    _assert_rows_trace_as_mosaics(rows, 4)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=12))))
@settings(max_examples=100, deadline=None)
def test_trace_rows_matches_trace_on_random_batches(batch):
    # None is a blank row: no strand, and the rows after it keep their numbers.
    n, seeds = batch
    rows = np.array([(0,) * n * n if seed is None else random_mosaic(n, random.Random(seed)).cells
                     for seed in seeds], dtype=np.uint8)
    _assert_rows_trace_as_mosaics(rows, n)


# Tile ids the walk must reject as validate() does: out of range at either
# end (a negative id must not index the exit table from its end), True
# (taken as 1, as validate takes it) and a fraction.
_ANY_TILE = st.one_of(st.integers(-1, 11), st.sampled_from([True, 2.5]))


@st.composite
def _faulty_grids(draw):
    """n <= 5 grids: a random valid mosaic with a few cells redrawn, or any
    row of tile ids, so that faults are both local and everywhere."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = list(random_mosaic(n, random.Random(draw(st.integers(0, 2 ** 32 - 1)))).cells)
        for i, t in draw(st.lists(st.tuples(st.integers(0, n * n - 1), _ANY_TILE), max_size=3)):
            cells[i] = t
    else:
        cells = draw(st.lists(_ANY_TILE, min_size=n * n, max_size=n * n))
    return Mosaic(n, tuple(cells))


@given(_faulty_grids())
# -1 where tile 10 fits: a walk indexing its table from the end takes it for 10.
@example(Mosaic(3, (0, 2, 1, 2, -1, 4, 3, 4, 0)))
@example(Mosaic(2, (2, True, 3, 4)))
@settings(max_examples=400, deadline=None)
def test_trace_faults_match_validating_first(m):
    # The walk finds the faults itself; it must answer as validating first did.
    try:
        rep = validate(m)
    except KnotfieldError as exc:
        want = exc
    else:
        if rep.valid:
            assert trace_components(m) == oracle_trace_components(m)
            return
        want = KnotfieldError(f"mosaic is not suitably connected ({len(rep.bad_edges)} bad edges)")
    with pytest.raises(KnotfieldError) as got:
        trace_components(m)
    assert (type(got.value), str(got.value)) == (type(want), str(want))


@given(_faulty_grids())
@settings(max_examples=200, deadline=None)
def test_to_diagram_faults_as_trace_components(m):
    # to_diagram walks the strands without trace_components; an invalid
    # mosaic must fail there with the same error.
    try:
        trace_components(m)
    except KnotfieldError as exc:
        with pytest.raises(KnotfieldError) as got:
            to_diagram(m)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))


def test_trace_rejects_invalid_mosaic():
    with pytest.raises(KnotfieldError, match="not suitably connected"):
        trace_components(Mosaic(2, (2, 0, 0, 0)))


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


@pytest.mark.parametrize("text,message,line,column", [
    ("", "empty mosaic document", 1, None),
    ("0\n", "lattice size must be positive, got 0", 1, None),
    ("2\n0 0\n", "expected 2 rows after the header, got 1", 2, None),
    ("2\n0 0\n0 0 0\n", "expected 2 tile ids, got 3", 3, None),
    ("2\n0 0\n0 x\n", "bad tile id 'x'", 3, 2),
    # int() reads each of these; the text format is the tokens encode() writes
    ("+4\n", "bad header '+4', expected an integer n", 1, None),
    ("\u0664\n", "bad header '\u0664', expected an integer n", 1, None),
    ("\uff14\n", "bad header '\uff14', expected an integer n", 1, None),
    ("2\n0 +1\n0 0\n", "bad tile id '+1'", 2, 2),
    ("2\n0 0\n0_8 0\n", "bad tile id '0_8'", 3, 1),
    ("2\n01 0\n0 0\n", "bad tile id '01'", 2, 1),
    ("2\n0 0\n0 11\n", "bad tile id '11'", 3, 2),
    ("2\n0 0\n0 \u0664\n", "bad tile id '\u0664'", 3, 2),
    ("9" * 5000 + "\n", f"bad header '{'9' * 5000}', expected an integer n", 1, None),
], ids=["empty", "header-below-1", "too-few-rows", "wrong-row-length", "non-integer-tile",
        "signed-header", "arabic-indic-header", "fullwidth-header", "signed-tile",
        "underscored-tile", "zero-padded-tile", "tile-above-10", "arabic-indic-tile",
        "header-past-int-digit-limit"])
def test_decode_error_names_its_place(text, message, line, column):
    with pytest.raises(MosaicParseError) as exc:
        decode(text)
    loc = f"line {line}" + (f", column {column}" if column is not None else "")
    assert str(exc.value) == f"{message} ({loc})"
    assert (exc.value.line, exc.value.column) == (line, column)


# Other scripts' digits that int() reads: Arabic-Indic, Devanagari, fullwidth.
_DIGIT_ZEROS = (0x660, 0x966, 0xFF10)


@st.composite
def _respelled(draw):
    """encode(m) for a random mosaic m with one token re-spelled as int()
    but not encode() writes it, and that token's (line, column)."""
    n = draw(st.integers(1, 5))
    m = Mosaic(n, tuple(draw(st.lists(st.integers(0, 10), min_size=n * n, max_size=n * n))))
    rows = [line.split(" ") for line in encode(m).splitlines()]
    line = draw(st.integers(1, n + 1))
    column = None if line == 1 else draw(st.integers(1, n))
    token = rows[line - 1][(column or 1) - 1]
    kinds = ["sign", "underscore", "non-ascii"] + ([] if line == 1 else ["leading-zero"])
    kind = draw(st.sampled_from(kinds))
    if kind == "sign":
        token = draw(st.sampled_from("+-")) + token
    elif kind == "underscore":
        token = token[0] + "_" + token[1:] if len(token) > 1 else "0_" + token
    elif kind == "leading-zero":
        token = "0" + token
    else:
        i = draw(st.integers(0, len(token) - 1))
        token = token[:i] + chr(draw(st.sampled_from(_DIGIT_ZEROS)) + int(token[i])) + token[i + 1:]
    rows[line - 1][(column or 1) - 1] = token
    return "".join(" ".join(row) + "\n" for row in rows), token, line, column


@given(_respelled())
@settings(max_examples=300, deadline=None)
def test_decode_refuses_any_token_encode_does_not_write(case):
    text, token, line, column = case
    with pytest.raises(MosaicParseError) as exc:
        decode(text)
    if column is None:
        assert str(exc.value) == f"bad header {token!r}, expected an integer n (line 1)"
    else:
        assert str(exc.value) == f"bad tile id {token!r} (line {line}, column {column})"
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "knotfield" / "data").glob("*.mosaic")),
                         ids=lambda path: path.stem)
def test_shipped_mosaics_are_canonical(path):
    text = path.read_text()
    assert encode(decode(text)) == text


@pytest.mark.parametrize("obj", [{"cells": [0]}, {"n": 1}])
def test_from_json_needs_n_and_cells(obj):
    with pytest.raises(MosaicParseError) as exc:
        from_json(json.dumps(obj))
    assert str(exc.value) == 'expected an object {"n": int, "cells": [int]}'
    assert (exc.value.line, exc.value.column) == (None, None)


def test_mosaic_checks_size_and_stores_a_tuple():
    with pytest.raises(KnotfieldError, match="^lattice size must be positive, got 0$"):
        Mosaic(0, ())
    assert Mosaic(1, [0]).cells == (0,)


def test_walk_stops_at_a_side_its_tile_lacks():
    # The W-E line leaves its cell for a blank one, which has no W side.
    cells = (5, 0)
    assert _walk(1, 2, cells, _edge_faults(1, 2, cells)) is None


def test_decode_rows_end_the_document():
    assert decode("2\n0 0\n0 0\n\n  \n") == Mosaic(2, (0,) * 4)
    with pytest.raises(MosaicParseError) as exc:
        decode("2\n0 0\n0 0\n\ngarbage\nmore\n")
    assert exc.value.line == 5


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


def test_random_mosaic_rejects_empty_lattice():
    with pytest.raises(KnotfieldError, match="^lattice size must be positive, got 0$"):
        random_mosaic(0, random.Random(0))


def test_random_mosaic_deterministic():
    a = random_mosaic(5, random.Random(7))
    b = random_mosaic(5, random.Random(7))
    assert a == b


@pytest.mark.parametrize("n", range(1, 13))
def test_random_mosaic_matches_backtracking_oracle(n):
    # same mosaic and the same generator state after the draw
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_mosaic(n, rng) == oracle_random_mosaic(n, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["trefoil4", "granny8"])
def test_generator_reproduces_fixture(name):
    # fig8_5 is left to the script: its exhaustive 5x5 search takes seconds.
    build = runpy.run_path(str(ROOT / "tools" / "make_fixtures.py"))["BUILDERS"][name]
    shipped = (ROOT / "src" / "knotfield" / "data" / f"{name}.mosaic").read_text()
    assert encode(build()) == shipped
