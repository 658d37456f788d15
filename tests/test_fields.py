import cmath
import random
import struct

import numpy as np
import pytest

from conftest import library_grid
from oracles import oracle_field

from knotfield.errors import KnotfieldError, UndefinedPhaseError
from knotfield.extraction import embed, sample_lattice
from knotfield.fields import field_library, parse_field_spec, phase

POWER_FIELDS = [("milnor", (p, q)) for p in range(2, 8) for q in range(2, 8)] + [
    ("rudolph_F", ()), ("rudolph_G", ())]


def test_unknot_field():
    f = field_library("unknot")
    assert f(0.3 + 0.1j, 5.0) == 0.3 + 0.1j
    assert f(0.0, 1.0) == 0.0


def test_milnor_values():
    f = field_library("milnor", (2, 3))
    assert f(1.0, 0.0) == 1.0
    assert f(1j, 1.0) == 0.0  # (i)^2 + 1 = 0
    # vectorized evaluation
    z = np.array([1.0, 1j])
    w = np.array([0.0, 1.0])
    assert np.allclose(f(z, w), [1.0, 0.0])


def test_milnor_validation():
    with pytest.raises(KnotfieldError):
        field_library("milnor", (1, 3))
    with pytest.raises(KnotfieldError):
        field_library("milnor", (2,))
    assert field_library("milnor", (2, 2)).name == "milnor(2,2)"  # a torus link


def test_rudolph_semianalytic():
    # Depends on zbar, not just z: conjugating z must change the value.
    g = field_library("rudolph_G")
    a = g(0.3 + 0.2j, 0.1)
    b = g(0.3 - 0.2j, 0.1)
    assert a != b
    with pytest.raises(KnotfieldError):
        field_library("rudolph_G", (2,))


def test_unknown_field():
    with pytest.raises(KnotfieldError):
        field_library("figure-eight")


def test_parse_field_spec():
    assert parse_field_spec("milnor:2,3").name == "milnor(2,3)"
    assert parse_field_spec("unknot").name == "unknot"


def test_phase_range_and_nodal_rejection():
    f = field_library("unknot")
    assert phase(f, 1.0, 0.0) == 0.0
    assert phase(f, -1.0, 0.0) == pytest.approx(cmath.pi)
    assert phase(f, -1j, 0.0) == pytest.approx(1.5 * cmath.pi)
    with pytest.raises(UndefinedPhaseError):
        phase(f, 0.0, 1.0)
    with pytest.raises(UndefinedPhaseError):
        phase(f, 1e-15, 1.0)


def term_scale(name, params, z, w):
    """The sum of the magnitudes of a field's terms at (z, w), which its
    rounding errors scale with."""
    if name == "milnor":
        p, q = params
        return np.abs(z) ** p + np.abs(w) ** q
    if name == "rudolph_G":
        z = z * z
    zb = np.conjugate(z)
    return np.abs(w) ** 3 + 3 * np.abs(zb * (1 + z + zb) * w) + 2 * np.abs(z + zb)


@pytest.mark.parametrize("chart", ["north", "south"])
def test_fields_match_power_oracle_on_chart_lattices(chart):
    # multiplied-out powers differ from numpy's complex `**` by rounding only
    for spec in POWER_FIELDS:
        grid = library_grid(spec, chart, 24)
        got = sample_lattice(field_library(*spec), grid, grid.axes())
        want = sample_lattice(oracle_field(*spec), grid, grid.axes())
        z, w = embed(grid, *np.meshgrid(*grid.axes(), indexing="ij"))
        err = np.abs(got - want) / (np.finfo(float).eps * term_scale(*spec, z, w))
        assert err.max() <= 16, (spec, err.max())


def complex_bits(v):
    return struct.pack("<dd", v.real, v.imag)


def test_fields_match_power_oracle_bit_for_bit_on_scalars():
    # CPython's complex `**` multiplies for integer exponents up to 100, and
    # the library's products are the same ones; signed zeros included
    rng = random.Random(7)
    special = [complex(a, b) for a in (0.0, -0.0, 1.0, -2.0) for b in (0.0, -0.0, 0.5, -1.0)]
    for p in range(2, 101):
        for q in range(2, 101):
            z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            w = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            points = [(z, w), (rng.choice(special), w), (z, rng.choice(special))]
            f, g = field_library("milnor", (p, q)), oracle_field("milnor", (p, q))
            for a, b in points:
                assert complex_bits(f(a, b)) == complex_bits(g(a, b)), (p, q, a, b)
    for name in ("rudolph_F", "rudolph_G"):
        f, g = field_library(name), oracle_field(name)
        for a in special + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(50)]:
            for b in special + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]:
                assert complex_bits(f(a, b)) == complex_bits(g(a, b)), (name, a, b)
