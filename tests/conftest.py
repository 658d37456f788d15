import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))  # for the oracles module

import knotfield
from knotfield.diagram import to_diagram
from knotfield.extraction import SampleGrid
from knotfield.laurent import LaurentPolynomial
from knotfield.mosaic import Mosaic, load, random_mosaic, trace_components
from knotfield.project import PROJECTION_START

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "knotfield", "data")

# Environment for a `python -m knotfield.cli` child: it imports knotfield
# from where the tests do, whether that is on PYTHONPATH or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(knotfield.__file__)), os.environ.get("PYTHONPATH")]))}

# Pinned Jones polynomials in s = t^(1/2) units.
TREFOIL_JONES = LaurentPolynomial({-8: -1, -6: 1, -2: 1})
FIG8_JONES = LaurentPolynomial({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
UNKNOT_JONES = LaurentPolynomial({0: 1})


def crossing_mosaic(rng, n, max_crossings=10):
    """A random valid n x n mosaic whose four-sided tiles are redrawn,
    mostly as crossings, so that c reaches `max_crossings`."""
    cells = list(random_mosaic(n, rng).cells)
    full = [i for i, t in enumerate(cells) if t in (7, 8, 9, 10)]
    rng.shuffle(full)
    for k, i in enumerate(full):
        cells[i] = rng.choice((9, 10) if k < max_crossings else (7, 8))
    return Mosaic(n, tuple(cells))


def random_diagram(seed, n, link, max_crossings=10):
    """Diagram of a random crossing_mosaic: one component if not `link`,
    else at least two."""
    rng = random.Random(seed)
    while True:
        m = crossing_mosaic(rng, n, max_crossings)
        strands = trace_components(m)
        if strands and (len(strands) > 1) == link:
            return to_diagram(m)


# The library fields the chart tests run, with their ids.
LIBRARY = [("unknot", ()), ("milnor", (2, 2)), ("milnor", (2, 3)), ("milnor", (2, 5)),
           ("milnor", (3, 4)), ("rudolph_F", ()), ("rudolph_G", ())]
LIBRARY_IDS = ["unknot", "milnor22", "milnor23", "milnor25", "milnor34", "rudolphF", "rudolphG"]


def library_grid(spec, chart, resolution):
    radius = 0.5 if spec[0].startswith("rudolph") else 1.0
    return SampleGrid(chart=chart, resolution=resolution, radius=radius)


def torus_polyline(p, q, k):
    """The (p, q) torus knot winding p times round an axis laid along
    PROJECTION_START, so it projects as a closed p-braid with (p-1)q crossings."""
    t = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    r = 2 + np.cos(q * t)
    pts = np.column_stack([r * np.cos(p * t), r * np.sin(p * t), np.sin(q * t)])
    axis = np.asarray(PROJECTION_START) / np.linalg.norm(PROJECTION_START)
    u = np.cross(axis, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    return pts @ np.vstack([u, np.cross(axis, u), axis])


def data_path(name):
    return os.path.join(DATA, name)


def load_fixture(name):
    with open(data_path(name)) as fh:
        return load(fh.read())


@pytest.fixture(scope="session")
def trefoil():
    return load_fixture("trefoil4.mosaic")


@pytest.fixture(scope="session")
def fig8():
    return load_fixture("fig8_5.mosaic")


@pytest.fixture(scope="session")
def granny():
    return load_fixture("granny8.mosaic")
