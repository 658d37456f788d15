#!/usr/bin/env python3
"""Mutation checks: deliberate faults that the tests must catch.

Each mutant is one exact text replacement in one file of the repository,
with the tests expected to fail once it is made.  For every mutant this
copies `src/`, `tests/` and `pyproject.toml` into a fresh directory, makes
the replacement there (its old text must occur exactly once), and runs
pytest on the named tests in the copy.  The mutant is caught when pytest
fails.  The repository itself is never written.

    python tools/mutants.py                       # every mutant
    python tools/mutants.py delta-sign-flipped    # some, by name
    python tools/mutants.py --workdir DIR         # copies under DIR

Prints one line per mutant and exits 1 if any survived.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("delta-sign-flipped", "src/knotfield/kernels.py",
           "[pat_b - pat_a, pat_a - pat_b]", "[pat_a - pat_b, pat_b - pat_a]",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("delta-rows-unsorted", "src/knotfield/kernels.py",
           "2)[order], delta[order])", "2)[order], delta)",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("expand-returns-chunk-lists", "src/knotfield/kernels.py",
           "[nb for *_, neighbors in chunks for nb in neighbors]",
           "[neighbors for *_, neighbors in chunks]",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("source-instance-sort-dropped", "src/knotfield/kernels.py",
           '        order = np.argsort(rows * n_inst + inst, kind="stable")\n'
           "        rows, inst, entry = rows[order], inst[order], entry[order]\n", "",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("window-tables-writable", "src/knotfield/kernels.py",
           "    for arr in tables[1:]:\n        arr.setflags(write=False)\n", "",
           ("tests/test_kernels.py::test_window_tables_read_only",
            "tests/test_orbits.py::test_window_tables_built_once_read_only")),
    Mutant("empty-table-max-unguarded", "src/knotfield/kernels.py",
           "int(pos.max(initial=-1))", "int(pos.max())",
           ("tests/test_orbits.py::test_orbit_closes_where_no_move_fits",)),
    Mutant("empty-level-guard-dropped", "src/knotfield/kernels.py",
           "if not states or n_inst == 0:", "if not states:",
           ("tests/test_kernels.py::test_window_tables_read_only",
            "tests/test_orbits.py::test_orbit_closes_where_no_move_fits")),
    Mutant("witness-takes-last-match", "src/knotfield/orbits.py",
           "insts[inst[neighbors.index(state)]]",
           "insts[inst[len(neighbors) - 1 - neighbors[::-1].index(state)]]",
           ("tests/test_orbits.py::test_witness_takes_the_first_of_two_moves_to_one_state",)),
    Mutant("budget-checked-per-chunk", "src/knotfield/orbits.py",
           "                    next_frontier.append(nb)\n"
           "                    if len(parents) > budget:\n"
           "                        raise BudgetExceededError(budget, len(parents))\n",
           "                    next_frontier.append(nb)\n"
           "            if len(parents) > budget:\n"
           "                raise BudgetExceededError(budget, len(parents))\n",
           ("tests/test_orbits.py::test_budget_seen_matches_oracle",
            "tests/test_orbits.py::test_budget_fails_inside_the_level_that_crosses_it")),
    Mutant("budget-checked-per-level", "src/knotfield/orbits.py",
           "                    next_frontier.append(nb)\n"
           "                    if len(parents) > budget:\n"
           "                        raise BudgetExceededError(budget, len(parents))\n",
           "                    next_frontier.append(nb)\n"
           "        if len(parents) > budget:\n"
           "            raise BudgetExceededError(budget, len(parents))\n",
           ("tests/test_orbits.py::test_budget_seen_matches_oracle",
            "tests/test_orbits.py::test_budget_fails_inside_the_level_that_crosses_it")),
    Mutant("parent-without-chunk-offset", "src/knotfield/orbits.py",
           "parents[nb] = block[i]", "parents[nb] = frontier[i]",
           ("tests/test_orbits.py::test_chunked_closure_matches_oracle_3x3",
            "tests/test_orbits.py::test_chunked_closure_matches_oracle_circle4")),
    Mutant("meet-witness-b-half-unreversed", "src/knotfield/orbits.py",
           "_tree_path(trees[1], nb, packed)[::-1]", "_tree_path(trees[1], nb, packed)",
           ("tests/test_orbits.py::test_same_orbit_witness_is_shortest",
            "tests/test_orbits.py::test_same_orbit_witness_is_shortest_circle4")),
    Mutant("meet-looked-up-in-own-tree", "src/knotfield/orbits.py",
           "if nb in theirs:", "if nb in mine:",
           ("tests/test_orbits.py::test_same_orbit_witness_is_shortest",
            "tests/test_orbits.py::test_different_orbits_decided_whichever_is_smaller")),
    Mutant("meet-grows-the-larger-frontier", "src/knotfield/orbits.py",
           "int(len(levels[1]) < len(levels[0]))", "int(len(levels[1]) > len(levels[0]))",
           ("tests/test_orbits.py::test_same_orbit_decides_without_closing_the_orbit",)),
    Mutant("meet-counted-before-it-ends-the-search", "src/knotfield/orbits.py",
           "                    mine[nb] = block[i]\n"
           "                    if nb in theirs:\n",
           "                    mine[nb] = block[i]\n"
           "                    held += 1\n"
           "                    if held > budget:\n"
           "                        raise BudgetExceededError(budget, held)\n"
           "                    if nb in theirs:\n",
           ("tests/test_orbits.py::test_same_orbit_budget_counts_both_searches",)),
    Mutant("template-hash-without-pattern-b", "src/knotfield/moves.py",
           "self.pattern_a, self.pattern_b)))", "self.pattern_a)))",
           ("tests/test_moves.py::test_template_hash_is_the_hash_of_its_fields",
            "tests/test_orbits.py::test_templates_differing_only_in_pattern_b_get_their_own_tables")),
    Mutant("template-unpickled-with-its-old-hash", "src/knotfield/moves.py",
           "    def __reduce__(self):", "    def _unused_reduce(self):",
           ("tests/test_moves.py::test_unpickled_template_hashes_in_its_own_process",)),
    Mutant("walk-starts-at-larger-pair-side", "src/knotfield/mosaic.py",
           "(s != _STARTS[t][p])", "(s == _STARTS[t][p])",
           ("tests/test_mosaic.py::test_trace_rows_matches_trace_on_orbit_classes",
            "tests/test_mosaic.py::test_trace_rows_matches_trace_on_random_batches")),
    Mutant("walk-keeps-reverse-orientation", "src/knotfield/rows.py",
           "kept = np.flatnonzero((best & (1 << 32)) == 0)",
           "kept = np.flatnonzero((best & (1 << 32)) != 0)",
           ("tests/test_mosaic.py::test_trace_rows_matches_trace_on_orbit_classes",
            "tests/test_mosaic.py::test_trace_rows_matches_trace_on_random_batches")),
    Mutant("walk-ranks-off-by-one", "src/knotfield/rows.py",
           "end[strand] - ahead,", "end[strand] - ahead - 1,",
           ("tests/test_mosaic.py::test_trace_rows_matches_trace_on_orbit_classes",
            "tests/test_mosaic.py::test_trace_rows_matches_trace_on_random_batches")),
    Mutant("walk-strands-descending", "src/knotfield/rows.py",
           "strand = np.searchsorted(starts, low)",
           "strand = starts.size - 1 - np.searchsorted(starts, low)",
           ("tests/test_mosaic.py::test_trace_rows_matches_trace_on_orbit_classes",
            "tests/test_mosaic.py::test_trace_rows_matches_trace_on_random_batches")),
    Mutant("walk-drops-last-passage", "src/knotfield/mosaic.py",
           "                return path, e < 0\n", "                return path[:-1], e < 0\n",
           ("tests/test_mosaic.py::test_trace_matches_oracle",
            "tests/test_diagram.py::test_to_diagram_matches_side_table_oracle")),
    # Reading the table at a passage's entry side instead of its exit side
    # changes nothing: both sides lie on one pair, so the over flag is the
    # same, and every direction turns round, which keeps every crossing's
    # sign.  The flag read off the crossing's other strand is what can go wrong.
    Mutant("crossing-exit-over-flag-inverted", "src/knotfield/diagram.py",
           "(s in CROSSING_OVER[t], SIDE_VECTORS[s])", "(s not in CROSSING_OVER[t], SIDE_VECTORS[s])",
           ("tests/test_diagram.py::test_to_diagram_matches_side_table_oracle",
            "tests/test_diagram.py::test_wirtinger_of_to_diagram_matches_side_table_oracle")),
    Mutant("row-diagrams-over-inverted", "src/knotfield/rows.py",
           "over = _OVER[rows[row, cell], exit_]", "over = ~_OVER[rows[row, cell], exit_]",
           ("tests/test_diagram.py::test_row_diagrams_match_to_diagram_on_orbit_classes",
            "tests/test_diagram.py::test_row_diagrams_match_to_diagram_on_random_batches")),
    Mutant("rank-unites-over-with-input", "src/knotfield/wirtinger.py",
           "((out, inp) for out, _, inp in p.relations)",
           "((over, inp) for _, over, inp in p.relations)",
           ("tests/test_wirtinger.py::test_class_count_matches_oracle_on_random_presentations",)),
    Mutant("classes-root-reversed", "src/knotfield/wirtinger.py",
           "parent[ra] = rb", "parent[rb] = ra",
           ("tests/test_wirtinger.py::test_fixture_presentations_pinned",)),
    Mutant("rank-counts-complement", "src/knotfield/wirtinger.py",
           "return len(set(roots.values()))",
           "return len(p.generators) - len(set(roots.values()))",
           ("tests/test_wirtinger.py::test_trefoil_presentation",
            "tests/test_wirtinger.py::test_class_count_matches_oracle_on_random_presentations")),
    Mutant("scale-extent-not-divided", "src/knotfield/evolution.py",
           "extent = max(float(np.abs(a).max()) for a in ax) / scale",
           "extent = max(float(np.abs(a).max()) for a in ax)",
           ("tests/test_cli.py::test_malformed_input_is_one_error_line",
            "tests/test_evolution.py::test_initial_state_validation")),
    Mutant("chain-endpoints-numpy-floats", "src/knotfield/extraction.py",
           "pts = [tuple(np.round(points[k], 6).tolist()) for k in dangling]",
           "pts = [tuple(np.round(points[k], 6)) for k in dangling]",
           ("tests/test_cli.py::test_open_chain_error_prints_plain_floats",)),
    Mutant("chain-walk-starts-at-higher-neighbour", "src/knotfield/extraction.py",
           "nxt = lo[cur] if lo[cur] != prev else hi[cur]",
           "nxt = hi[cur] if hi[cur] != prev else lo[cur]",
           ("tests/test_extraction.py::test_chain_matches_oracle_on_random_graphs",
            "tests/test_extraction.py::test_chain_matches_oracle")),
    Mutant("chain-dedupe-keeps-duplicates", "src/knotfield/extraction.py",
           "    distinct[1:] = keys[1:] != keys[:-1]\n", "",
           ("tests/test_extraction.py::test_chain_matches_oracle_on_random_graphs",
            "tests/test_extraction.py::test_chain_matches_oracle")),
    Mutant("chain-dedupe-drops-first-key", "src/knotfield/extraction.py",
           "distinct = np.ones(len(keys), dtype=bool)",
           "distinct = np.zeros(len(keys), dtype=bool)",
           ("tests/test_extraction.py::test_chain_matches_oracle_on_random_graphs",
            "tests/test_extraction.py::test_chain_matches_oracle")),
    Mutant("power-drops-a-factor", "src/knotfield/fields.py",
           "result = result * x", "result = result",
           ("tests/test_fields.py::test_fields_match_power_oracle_bit_for_bit_on_scalars",
            "tests/test_fields.py::test_fields_match_power_oracle_on_chart_lattices")),
    Mutant("leftover-arguments-reported-by-the-command", "src/knotfield/cli.py",
           "        if not rest:\n            return args\n",
           "        if rest:\n            leaf.error(f\"unrecognized arguments: {' '.join(rest)}\")\n"
           "        return args\n",
           ("tests/test_cli.py::test_dispatch_answers_as_the_full_parser",)),
    Mutant("top-level-option-reading-skipped", "src/knotfield/cli.py",
           ' and not any(a.startswith("--=") for a in argv)', "",
           ("tests/test_cli.py::test_dispatch_answers_as_the_full_parser_on_other_argv",
            "tests/test_cli.py::test_parse_args_matches_the_full_parser_on_any_tokens")),
    Mutant("round-fallback-band-dropped", "tests/oracles.py",
           " | (np.abs(t - np.floor(t) - 0.5) <= t * 2.0 ** -50)", "",
           ("tests/test_cli.py::test_round12_is_round_bit_for_bit",)),
    Mutant("json-half-way-cases-not-sent-to-round", "src/knotfield/cli.py",
           " | (np.abs(t - np.floor(t) - 0.5) <= t * 2.0 ** -50)", "",
           ("tests/test_cli.py::test_json_rows_is_json_dumps_of_round",)),
    Mutant("json-trailing-zero-kept", "src/knotfield/cli.py",
           '[d.rstrip("0") for d in digits]', '[(d.rstrip("0") + "0")[:3] for d in digits]',
           ("tests/test_cli.py::test_json_rows_is_json_dumps_of_round",
            "tests/test_cli.py::test_field_extract_json_coordinates_are_round")),
    Mutant("json-e-notation-threshold-moved", "src/knotfield/cli.py",
           "(q < 1e8)", "(q < 1e7)",
           ("tests/test_cli.py::test_json_rows_is_json_dumps_of_round",)),
    Mutant("json-chunk-offset-dropped", "src/knotfield/cli.py",
           "idx[(-lo) % cols::cols, 0]", "idx[::cols, 0]",
           ("tests/test_cli.py::test_json_rows_is_json_dumps_of_round",)),
    Mutant("match-ties-not-broken-by-index", "src/knotfield/evolution.py",
           "if d < best or (d == best and i < bi):", "if d < best:",
           ("tests/test_evolution.py::test_match_breaks_distance_ties_by_index",)),
    Mutant("match-tries-components-in-reverse-index-order", "src/knotfield/evolution.py",
           'near[np.argsort(gap[near], kind="stable")]', "near[::-1]",
           ("tests/test_evolution.py::test_match_tries_components_by_increasing_gap",)),
    Mutant("track-region-drops-the-boundary-cell", "src/knotfield/evolution.py",
           'np.searchsorted(ax[0], half, "right")', "np.searchsorted(ax[0], half)",
           ("tests/test_evolution.py::test_track_region_is_every_cell_within_half_roi",)),
    Mutant("norm-recomputed-on-every-call", "src/knotfield/evolution.py",
           "        return self._norm\n", "        return _l2(self.values)\n",
           ("tests/test_cli.py::test_evolve_run_takes_each_norm_once",)),
    Mutant("free-phases-take-n-steps", "src/knotfield/evolution.py",
           "omega, n, dt = (0.0, 0.0, 0.0), 1, n * dt", "omega = (0.0, 0.0, 0.0)",
           ("tests/test_evolution.py::test_run_builds_each_phase_once",)),
    Mutant("free-phases-span-one-step", "src/knotfield/evolution.py",
           "omega, n, dt = (0.0, 0.0, 0.0), 1, n * dt", "omega, n, dt = (0.0, 0.0, 0.0), 1, dt",
           ("tests/test_evolution.py::test_run_builds_each_phase_once",
            "tests/test_evolution.py::test_run_matches_per_step_oracle")),
    Mutant("snapshot-interval-checked-lazily", "src/knotfield/evolution.py",
           "    return _snapshots(state, cfg, snapshot_every or cfg.steps)",
           "    yield from _snapshots(state, cfg, snapshot_every or cfg.steps)",
           ("tests/test_evolution.py::test_snapshot_interval_checked_at_the_call",)),
    Mutant("track-holds-every-snapshot", "src/knotfield/cli.py",
           "report = ev.track_nodal(history, cfg,",
           "report = ev.track_nodal(list(history), cfg,",
           ("tests/test_cli.py::test_track_peak_memory_does_not_grow_with_snapshots",)),
    Mutant("run-holds-every-snapshot", "src/knotfield/cli.py",
           "    for final in history:", "    for final in list(history):",
           ("tests/test_cli.py::test_track_peak_memory_does_not_grow_with_snapshots",)),
    Mutant("advance-axes-1-2-swapped", "src/knotfield/evolution.py",
           "m0, m1, m2 = phases", "m0, m2, m1 = phases",
           ("tests/test_evolution.py::test_run_matches_per_step_oracle",
            "tests/test_evolution.py::test_harmonic_run_matches_per_step_oracle")),
    Mutant("advance-slice-untransposed", "src/knotfield/evolution.py",
           "np.matmul(m1 @ out[i], m2.T, out=out[i])", "np.matmul(m1 @ out[i], m2, out=out[i])",
           ("tests/test_evolution.py::test_advance_is_bit_identical_to_whole_cube_products",)),
    Mutant("last-kick-full", "src/knotfield/evolution.py",
           "m *= half[:, None]", "m *= full[:, None]",
           ("tests/test_evolution.py::test_harmonic_run_matches_per_step_oracle",)),
    Mutant("squaring-takes-n-powers", "src/knotfield/evolution.py",
           "m, e = kinetic_after(half), n - 1", "m, e = kinetic_after(half), n",
           ("tests/test_evolution.py::test_axis_matrix_matches_per_step_oracle",)),
    Mutant("sampling-overflow-unchecked", "src/knotfield/extraction.py",
           'np.errstate(over="raise", divide="raise", invalid="raise")', "np.errstate()",
           ("tests/test_cli.py::test_malformed_input_is_one_error_line",)),
    Mutant("embed-signed-zeros-dropped", "src/knotfield/extraction.py",
           "    np.add(re0, 0.0 * nx - 0.0, out=re0)\n"
           "    np.divide(nx + 0.0, s, out=zw[0].imag)\n"
           "    np.divide(ny + (0.0 * nz - 0.0), s, out=zw[1].real)\n"
           "    np.divide(nz + 0.0, s, out=zw[1].imag)\n",
           "    np.divide(nx, s, out=zw[0].imag)\n"
           "    np.divide(ny, s, out=zw[1].real)\n"
           "    np.divide(nz, s, out=zw[1].imag)\n",
           ("tests/test_extraction.py::test_embed_bit_identical_to_oracle",)),
    Mutant("candidate-scan-nan-bit-dropped", "src/knotfield/extraction.py",
           "            c |= np.isnan(v).view(np.uint16) << 2\n", "            pass\n",
           ("tests/test_extraction.py::test_candidate_cells_special_values",)),
    Mutant("scan-nan-pass-never-runs", "src/knotfield/extraction.py",
           "        if not c.view(np.uint8).all():\n", "        if False:\n",
           ("tests/test_extraction.py::test_candidate_cells_special_values",)),
    Mutant("scan-carried-plane-dropped", "src/knotfield/extraction.py",
           "        code[0], carry[...] = code[m], slab[-1]\n", "",
           ("tests/test_extraction.py::test_streamed_extraction_matches_array_and_oracle",)),
    Mutant("march-tet-face-map-entry-moved", "src/knotfield/extraction.py",
           "_FACE_CORNERS, _FACE_SHAPES, _TET_FACES = _face_table()\n",
           "_FACE_CORNERS, _FACE_SHAPES, _TET_FACES = _face_table()\n"
           "_TET_FACES[2, 1] = _TET_FACES[3, 1]\n",
           ("tests/test_extraction.py::test_march_matches_oracle_on_lattices_with_exact_zeros",
            "tests/test_extraction.py::test_march_matches_oracle")),
    Mutant("march-segments-from-degenerate-tets", "src/knotfield/extraction.py",
           "pairs = count == 2", "pairs = count >= 2",
           ("tests/test_extraction.py::test_march_matches_oracle_on_lattices_with_exact_zeros",
            "tests/test_extraction.py::test_march_matches_oracle")),
    Mutant("march-face-key-without-shape", "src/knotfield/extraction.py",
           "keys = lowest * 64 + _FACE_SHAPES[hf]", "keys = lowest * 64",
           ("tests/test_extraction.py::test_march_matches_oracle_on_lattices_with_exact_zeros",
            "tests/test_extraction.py::test_march_matches_oracle")),
    Mutant("advance-finite-check-first-slice-only", "src/knotfield/evolution.py",
           "if not np.isfinite(out[i].view(float)).all():",
           "if not np.isfinite(out[0].view(float)).all():",
           ("tests/test_evolution.py::test_propagated_state_is_checked_once",)),
    Mutant("propagated-state-checked-twice", "src/knotfield/evolution.py",
           "return FieldState._checked(out, t, s.norm0)", "return FieldState(out, t, s.norm0)",
           ("tests/test_evolution.py::test_propagated_state_is_checked_once",)),
    Mutant("extract-march-unguarded", "src/knotfield/extraction.py",
           'with warnings.catch_warnings(), finite_values("the interpolated field"):',
           "with warnings.catch_warnings():",
           ("tests/test_cli.py::test_malformed_input_is_one_error_line",)),
    Mutant("sampling-slab-one-plane-short", "src/knotfield/extraction.py",
           "sl = slice(lo, lo + planes)", "sl = slice(lo, lo + planes - 1)",
           ("tests/test_extraction.py::test_sample_lattice_is_the_extraction_lattice",)),
    Mutant("fiber-slab-offset-dropped", "src/knotfield/extraction.py",
           "ax[0][lo + i]", "ax[0][i]",
           ("tests/test_extraction.py::test_sample_fiber_matches_full_cube_oracle",)),
    Mutant("retry-shift-on-first-attempt", "src/knotfield/extraction.py",
           "        if attempt:\n            ax = tuple(", "        if True:\n            ax = tuple(",
           ("tests/test_extraction.py::test_degenerate_tetrahedron_warns_and_extract_dilates",)),
    Mutant("crossing-cap-refuses-at-the-cap", "src/knotfield/diagram.py",
           "if c > CROSSING_CAP:", "if c >= CROSSING_CAP:",
           ("tests/test_diagram.py::test_crossing_cap",
            "tests/test_project.py::test_torus_knot_jones_closed_form")),
    Mutant("is-closed-inverted", "src/knotfield/extraction.py",
           "return bool(self.closed_flags[i])", "return not self.closed_flags[i]",
           ("tests/test_evolution.py::test_track_counts_closed_and_open_components",
            "tests/test_extraction.py::test_csv_and_obj_exports")),
    Mutant("closing-vertex-skipped", "src/knotfield/extraction.py",
           "return np.concatenate([a, a[:1]]) if c else a", "return a",
           ("tests/test_extraction.py::test_nodal_curve_alone_closes_its_components",
            "tests/test_extraction.py::test_refine_matches_oracle")),
    Mutant("vertices-strips-open-components", "src/knotfield/extraction.py",
           "return self.components[i][:-1] if self.is_closed(i) else self.components[i]",
           "return self.components[i][:-1]",
           ("tests/test_extraction.py::test_nodal_curve_alone_closes_its_components",)),
    Mutant("extract-escalates-every-user-warning", "src/knotfield/extraction.py",
           'warnings.filterwarnings("error", _DEGENERATE, UserWarning)',
           'warnings.simplefilter("error", UserWarning)',
           ("tests/test_extraction.py::test_field_warning_reaches_the_caller_and_is_sampled_once",)),
    Mutant("label-reader-accepts-any-decodable-text", "src/knotfield/mosaic.py",
           "    if encode(m) != text:\n"
           "        raise KnotfieldError(f\"label {text!r} is not a canonical mosaic encoding\")\n",
           "",
           ("tests/test_orbits.py::test_text_membership_needs_canonical_label",
            "tests/test_states.py::test_act_and_chi_reject_non_canonical_labels")),
    Mutant("diagram-imports-numpy", "src/knotfield/diagram.py",
           "from dataclasses import dataclass\n\nfrom .errors",
           "from dataclasses import dataclass\n\nimport numpy as np  # noqa: F401\n\nfrom .errors",
           ("tests/test_cli.py::test_mosaic_commands_start_without_numpy",)),
    Mutant("late-export-in-wrong-module", "src/knotfield/__init__.py",
           '"orbits": ("Orbit", "orbit", "same_orbit"),\n'
           '    "states": ("StateVector", "act", "chi",',
           '"orbits": ("Orbit", "orbit", "same_orbit", "chi"),\n'
           '    "states": ("StateVector", "act",',
           ("tests/test_package.py::test_exported_names_are_their_modules_objects",)),
    Mutant("bad-tile-column-from-zero", "src/knotfield/mosaic.py",
           'f"bad tile id {f!r}", line=r + 2, column=c + 1)',
           'f"bad tile id {f!r}", line=r + 2, column=c)',
           ("tests/test_mosaic.py::test_decode_error_names_its_place",)),
    Mutant("tile-id-read-by-int", "src/knotfield/mosaic.py",
           "            t = _TILE_IDS.get(f)\n            if t is None:\n",
           "            try:\n                t = int(f)\n            except ValueError:\n"
           "                t = None\n            if t is None or not 0 <= t < NUM_TILES:\n",
           ("tests/test_mosaic.py::test_decode_error_names_its_place",
            "tests/test_mosaic.py::test_decode_refuses_any_token_encode_does_not_write")),
    Mutant("field-spec-ascii-check-dropped", "src/knotfield/numerals.py",
           "digits.isascii() and digits.isdigit()", "digits.isdigit()",
           ("tests/test_fields.py::test_parse_field_spec_takes_ascii_digits_only",)),
    Mutant("int-flags-read-by-int", "src/knotfield/cli.py",
           "from .numerals import read_float, read_int\n",
           "from .numerals import read_float\nread_int = int\n",
           ("tests/test_cli.py::test_respelled_number_flags_are_usage_errors",)),
    Mutant("float-reader-takes-underscores", "src/knotfield/numerals.py",
           'if not s.isascii() or "_" in s:', "if not s.isascii():",
           ("tests/test_cli.py::test_respelled_number_flags_are_usage_errors",)),
    Mutant("duplicate-move-name-accepted", "src/knotfield/moves.py",
           "if t.name in names:", "if False:",
           ("tests/test_moves.py::test_move_table_text_is_validated",)),
    Mutant("negative-steps-accepted", "src/knotfield/evolution.py",
           "if self.steps < 0:", "if self.steps < -1:",
           ("tests/test_cli.py::test_malformed_input_is_one_error_line",)),
    Mutant("over-in-unchecked", "src/knotfield/diagram.py",
           "if x.over_in not in (1, 3):", "if False:",
           ("tests/test_diagram.py::test_check_rejects_malformed_crossings",)),
    Mutant("segment-direction-from-chord", "src/knotfield/project.py",
           "seg = np.roll(pts2, -1, axis=0) - pts2", "seg = np.roll(pts2, -2, axis=0) - pts2",
           ("tests/test_project.py::test_crossing_signs_follow_the_segment_directions",)),
    Mutant("amphichiral-match-reported-mirrored", "src/knotfield/project.py",
           "computed != want and computed == want.mirror()", "computed == want.mirror()",
           ("tests/test_project.py::test_verify_extracted_fig8",)),
    Mutant("mirror-match-reported-plain", "src/knotfield/project.py",
           "computed == want or mirrored, mirrored,", "computed == want or mirrored, False,",
           ("tests/test_cli.py::test_field_verify_mirror_flag_follows_the_chart",)),
    Mutant("r2-over-parity-dropped", "src/knotfield/project.py",
           "and (px - x.over_in) % 2 == (py - y.over_in) % 2", "and True",
           ("tests/test_project.py::test_reduce_preserves_jones_on_census",
            "tests/test_project.py::test_projected_pd_code_pinned")),
    Mutant("r1-free-loop-not-counted", "src/knotfield/project.py",
           "free_loops += 1", "free_loops += len(drop) - 1",
           ("tests/test_project.py::test_reduce_preserves_jones_on_census",
            "tests/test_diagram.py::test_bracket_matches_oracle_on_random_mosaics")),
    Mutant("r2-free-loop-not-counted", "src/knotfield/project.py",
           "free_loops += 1", "free_loops += 2 - len(drop)",
           ("tests/test_project.py::test_reduce_preserves_jones_on_census",
            "tests/test_diagram.py::test_bracket_matches_oracle_on_random_mosaics")),
    Mutant("r2-joins-wrong-far-end", "src/knotfield/project.py",
           "[(x.ends[(px + 2) % 4], y.ends[(py + 2) % 4]),\n"
           "                              (x.ends[(bx + 2) % 4], y.ends[(by + 2) % 4])]",
           "[(x.ends[(px + 2) % 4], y.ends[(by + 2) % 4]),\n"
           "                              (x.ends[(bx + 2) % 4], y.ends[(py + 2) % 4])]",
           ("tests/test_project.py::test_reduce_preserves_jones_on_census",
            "tests/test_project.py::test_parametric_fig8_jones")),
    Mutant("first-loop-times-d", "src/knotfield/diagram.py",
           "                    m[0] = 1\n                    loops -= 1\n",
           "                    m[0] = 1\n",
           ("tests/test_diagram.py::test_kink_brackets",
            "tests/test_diagram.py::test_bracket_matches_oracle_on_built_diagrams")),
    Mutant("b-smoothing-shift-up", "src/knotfield/diagram.py",
           "(((e1, e2), (e3, e0)), -1)", "(((e1, e2), (e3, e0)), 1)",
           ("tests/test_diagram.py::test_kink_brackets",
            "tests/test_diagram.py::test_bracket_matches_oracle_on_built_diagrams")),
    # The order sets only the bracket's cost: no result test can see it.
    Mutant("order-ties-to-highest-index", "src/knotfield/diagram.py",
           "max(left, key=score.__getitem__)", "max(reversed(left), key=score.__getitem__)",
           ("tests/test_diagram.py::test_contraction_order_matches_oracle_on_random_mosaics",
            "tests/test_diagram.py::test_contraction_order_matches_oracle_on_built_diagrams",
            "tests/test_project.py::test_torus_knot_contraction_order_matches_oracle")),
)


def mutate(mutant, root):
    """Make the mutant's replacement in the tree at root."""
    path = pathlib.Path(root) / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant, workdir):
    """(caught, seconds) for one mutant, run in a fresh copy under workdir."""
    copy = pathlib.Path(tempfile.mkdtemp(prefix=f"{mutant.name}-", dir=workdir))
    try:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        mutate(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
        return proc.returncode != 0, time.perf_counter() - t0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--workdir", help="directory for the copies (default: a temporary one)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        for mutant in chosen:
            caught, seconds = run(mutant, workdir)
            survived += not caught
            print(f"{'caught  ' if caught else 'SURVIVED'} {mutant.name} ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} caught in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
