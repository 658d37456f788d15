"""The package namespace: numpy-backed modules are imported on first use,
and every name the package exports is still the object its module defines."""

import importlib

import knotfield

# The names the package exported when it imported every module up front
# (version 1.0.0), by the module that defines them.
EXPORTS = {
    "errors": ("BudgetExceededError", "ContractViolationError", "KnotfieldError",
               "MosaicParseError", "NonGenericProjectionError", "OpenChainError",
               "UndefinedPhaseError"),
    "mosaic": ("Mosaic", "decode", "encode", "load", "validate"),
    "laurent": ("LaurentPolynomial",),
    "diagram": ("PlanarDiagram", "bracket", "jones", "to_diagram"),
    "moves": ("MoveInstance", "MoveTemplate", "default_table"),
    "orbits": ("Orbit", "orbit", "same_orbit"),
    "states": ("StateVector", "act", "chi", "dim", "inner", "invariant_observable"),
    "wirtinger": ("WirtingerPresentation", "abelianization_rank", "wirtinger"),
    "fields": ("ComplexField", "field_library", "parse_field_spec"),
    "extraction": ("NodalCurve", "SampleGrid", "extract", "extract_from_samples", "refine"),
    "project": ("VerificationReport", "project_diagram", "verify_knot_type"),
    "evolution": ("EvolutionConfig", "FieldState", "step", "track_nodal"),
}
# Its submodule attributes; `wirtinger` is the function, not the module.
SUBMODULES = ("diagram", "errors", "evolution", "extraction", "fields", "kernels", "laurent",
              "mosaic", "moves", "orbits", "project", "states")


def test_exported_names_are_their_modules_objects():
    for name in (*SUBMODULES, "cli", "rows", "wirtinger"):  # every submodule imported
        importlib.import_module(f"knotfield.{name}")
    listed = dir(knotfield)
    wrong = [(module, name) for module, names in EXPORTS.items() for name in names
             if getattr(knotfield, name)
             is not getattr(importlib.import_module(f"knotfield.{module}"), name)
             or name not in listed]
    wrong += [name for name in SUBMODULES
              if getattr(knotfield, name) is not importlib.import_module(f"knotfield.{name}")
              or name not in listed]
    assert wrong == []
    assert knotfield.wirtinger is importlib.import_module("knotfield.wirtinger").wirtinger
