"""Acceptance gate: one test per headline guarantee.

Run with -v to get one pass/fail line per criterion.  Each test states its
tolerance inline; expected values come from exact arithmetic, pinned
fixtures, or the exhaustive-smoothing oracle in oracles.py.
"""

import cmath
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import CHILD_ENV, FIG8_JONES, TREFOIL_JONES, UNKNOT_JONES, data_path

from oracles import (chart_transfer, gaussian_packet, oracle_jones, plane_wave,
                     relation_exponent_sums)

from knotfield.diagram import evaluate_jones, jones, to_diagram
from knotfield.evolution import EvolutionConfig, gaussian_state, run, step
from knotfield.extraction import SampleGrid, extract, refine
from knotfield.fields import field_library
from knotfield.mosaic import Mosaic, load, random_mosaic, validate
from knotfield.moves import apply, default_table, instances_for
from knotfield.orbits import orbit, same_orbit
from knotfield.project import verify_knot_type
from knotfield.states import (StateVector, chi, dim, invariant_observable)
from knotfield.wirtinger import abelianization_rank, wirtinger

TABLE = default_table()
CIRCLE3 = Mosaic(3, (2, 1, 0, 3, 4, 0, 0, 0, 0))
CIRCLE4 = Mosaic(4, (2, 1, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
TREFOIL_PARTNER = load("4\n2 5 1 0\n6 2 9 1\n3 9 10 4\n0 3 4 0\n")


def test_criterion_01_basis_dimensions():
    assert dim(1) == 11
    assert dim(2) == 14641
    assert dim(3) == 2357947691
    assert dim(3) == 11 ** 9


def test_criterion_02_ambient_group_axioms():
    rng = random.Random(20240201)
    checks = 0
    while checks < 1000:
        n = rng.choice((3, 4))
        m = random_mosaic(n, rng)
        insts = instances_for(TABLE, n)
        for inst in rng.sample(insts, 10):
            moved = apply(inst, m)
            assert apply(inst, moved) == m            # involution
            assert validate(moved).valid              # validity preserved
            checks += 1
        amp = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        psi = (amp * StateVector.basis(m)
               + 0.5 * StateVector.basis(random_mosaic(n, rng))).normalized()
        from knotfield.states import act
        out = act(rng.sample(insts, 3), psi)
        assert abs(out.norm() - 1.0) < 1e-12          # unitarity
    assert checks >= 1000


def test_criterion_03_chi_projector_and_orbits(trefoil):
    proj = chi(trefoil, TABLE)
    t = StateVector.basis(trefoil)
    u = StateVector.basis(CIRCLE4)
    assert proj.apply(t) == t
    assert proj.apply(u) == StateVector.zero()
    assert proj.apply(proj.apply(t)) == proj.apply(t)
    # orbit closures complete within budget, sizes pinned from first run
    assert orbit(Mosaic(1, (0,)), TABLE).size == 1
    assert orbit(CIRCLE3, TABLE).size == 19
    assert orbit(CIRCLE4, TABLE).size == 1348
    assert orbit(trefoil, TABLE).size == 2


def test_criterion_04_determinant_observable(trefoil):
    def v_minus1(m):
        return evaluate_jones(jones(to_diagram(m)), -1.0)

    obs = invariant_observable(v_minus1, 4, TABLE)
    assert obs.eigenvalue_for(CIRCLE4) == pytest.approx(1.0)
    assert abs(obs.eigenvalue_for(trefoil)) == pytest.approx(3.0)
    # constancy across each materialized orbit
    for rep in (CIRCLE4, trefoil):
        val = obs.eigenvalue_for(rep)
        for inst in instances_for(TABLE, 4):
            assert obs.eigenvalue_for(apply(inst, rep)) == pytest.approx(val)


def test_criterion_05_oracle_equivalence(trefoil, fig8, granny):
    for m in (trefoil, fig8, granny):
        d = to_diagram(m)
        assert len(d.crossings) <= 6
        assert dict(jones(d).terms()) == oracle_jones(d)
    assert jones(to_diagram(CIRCLE4)) == UNKNOT_JONES
    # Jones constant across the fixture same-orbit pair
    same, _ = same_orbit(trefoil, TREFOIL_PARTNER, TABLE)
    assert same
    assert jones(to_diagram(TREFOIL_PARTNER)) == jones(to_diagram(trefoil))


def test_criterion_06_wirtinger(trefoil, fig8):
    for m in (trefoil, fig8):
        d = to_diagram(m)
        p = wirtinger(d)
        assert len(p.relations) == len(d.crossings)   # one per crossing
        for rel in p.relations:
            assert len(rel) == 3                      # c = b^-1 a b shape
        for sums in relation_exponent_sums(p):
            assert sum(sums.values()) == 0            # trivializes under g -> t
        assert abelianization_rank(p) == 1


def test_criterion_07_classifying_maps(trefoil):
    t0 = time.perf_counter()
    f23, g64 = field_library("milnor", (2, 3)), SampleGrid(resolution=64)
    c23 = extract(f23, g64)
    r23 = refine(c23, f23, g64)
    assert time.perf_counter() - t0 < 60.0
    assert c23.n_components == 1 and c23.is_closed(0)
    assert r23.residual < 1e-8
    assert verify_knot_type(c23, trefoil).match      # up to mirror

    t0 = time.perf_counter()
    c22 = extract(field_library("milnor", (2, 2)), SampleGrid(resolution=64))
    assert time.perf_counter() - t0 < 60.0
    assert c22.n_components == 2

    t0 = time.perf_counter()
    cg = extract(field_library("rudolph_G"),
                 SampleGrid(resolution=64, radius=0.5))
    assert time.perf_counter() - t0 < 60.0
    assert cg.n_components == 1
    rep = verify_knot_type(cg, FIG8_JONES)
    assert rep.match
    assert rep.computed == rep.computed.mirror()      # palindromic


def test_criterion_08_resolution_and_chart_stability(trefoil):
    for n in (48, 64, 96):
        f23, g = field_library("milnor", (2, 3)), SampleGrid(resolution=n)
        c = extract(f23, g)
        assert c.n_components == 1 and refine(c, f23, g).residual < 1e-8
        assert verify_knot_type(c, trefoil).match
        assert extract(field_library("milnor", (2, 2)),
                       SampleGrid(resolution=n)).n_components == 2
        cg = extract(field_library("rudolph_G"),
                     SampleGrid(resolution=n, radius=0.5))
        assert cg.n_components == 1
        assert verify_knot_type(cg, FIG8_JONES).match
    # two-chart agreement on the overlap, within 2x grid spacing
    f = field_library("milnor", (2, 3))
    north = extract(f, SampleGrid(chart="north", resolution=64))
    south = extract(f, SampleGrid(chart="south", resolution=64))
    spacing = SampleGrid(resolution=64).spacing
    a = north.components[0][:-1]
    b = chart_transfer(south.components[0][:-1])
    keep = np.all(np.abs(b) <= 3.0, axis=1)
    d = np.linalg.norm(a[:, None, :] - b[keep][None, :, :], axis=-1)
    assert d.min(axis=0).max() < 2 * spacing


def test_criterion_09_evolution_unitarity_and_order():
    for ham in ("free", "harmonic"):
        cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32,
                              dt=1e-3, steps=100)
        psi = gaussian_state(cfg, width=1.0)
        final = run(psi, cfg)[-1]
        assert final.norm_drift() < 1e-10             # per 100 steps
        back = final
        for _ in range(cfg.steps):
            back = step(back, cfg, dt=-cfg.dt)
        assert np.abs(back.values - psi.values).max() < 1e-10
    # free steps compose exactly (spectral propagator is a group)
    cfg = EvolutionConfig(box=8.0, resolution=32, dt=1e-3, steps=1)
    psi = plane_wave(cfg, (2, 1, 0))
    one = step(psi, cfg, dt=1e-3)
    two = step(step(psi, cfg, dt=5e-4), cfg, dt=5e-4)
    assert np.abs(one.values - two.values).max() < 5e-15
    # harmonic Strang splitting: halving dt cuts the error by about 4
    base = dict(hamiltonian="harmonic", box=8.0, resolution=32)
    g = gaussian_packet(EvolutionConfig(**base), width=1.0, center=(0.5, 0, 0))

    def err(dt, steps):
        coarse = run(g, EvolutionConfig(dt=dt, steps=steps, **base))[-1]
        fine = run(g, EvolutionConfig(dt=dt / 8, steps=8 * steps, **base))[-1]
        return np.abs(coarse.values - fine.values).max()

    ratio = err(4e-2, 8) / err(2e-2, 16)
    assert 3.0 < ratio < 5.0


def test_criterion_10_cli_thread_determinism(tmp_path):
    pipelines = [
        ["mosaic", "orbit", data_path("trefoil4.mosaic"),
         "--members", "--format", "json"],
        ["field", "extract", "--field", "milnor:2,3", "--resolution", "48"],
        ["observable", "invariant", data_path("trefoil4.mosaic"),
         "--format", "json"],
    ]
    for i, argv in enumerate(pipelines):
        outs = []
        for t in ("1", "8"):
            path = tmp_path / f"p{i}_t{t}"
            proc = subprocess.run(
                [sys.executable, "-m", "knotfield.cli", *argv,
                 "--threads", t, "--out", str(path)],
                capture_output=True, text=True, env=CHILD_ENV)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
