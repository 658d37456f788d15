"""knotfield: mosaic quantum knots and knotted nodal sets of complex fields.

Two complementary pictures of a knot as a quantum object:

* a basis state of the finite mosaic state space, acted on unitarily by the
  group of local tile moves, with knot invariants as diagonal observables
  (mosaic, moves, orbits, states, diagram, laurent, wirtinger);
* the zero set of a complex wavefunction on the 3-sphere or a periodic box,
  extracted numerically, verified against an expected knot type, and
  evolved under a Schrodinger Hamiltonian (fields, extraction, project,
  evolution).
"""

__version__ = "1.0.0"

from importlib import import_module

from .errors import (  # noqa: F401
    BudgetExceededError,
    ContractViolationError,
    KnotfieldError,
    MosaicParseError,
    NonGenericProjectionError,
    OpenChainError,
    UndefinedPhaseError,
)
from .mosaic import Mosaic, decode, encode, load, validate  # noqa: F401
from .laurent import LaurentPolynomial  # noqa: F401
from .diagram import PlanarDiagram, bracket, jones, to_diagram  # noqa: F401
from .moves import MoveInstance, MoveTemplate, default_table  # noqa: F401
from .wirtinger import WirtingerPresentation, abelianization_rank, wirtinger  # noqa: F401

# The names from the modules that import numpy, bound on first use (PEP 562),
# so that importing the package, as the mosaic and wirtinger commands do,
# leaves numpy unimported.  Names are bound up front everywhere else: the
# import of a submodule binds the submodule's name in the package, which
# would shadow a late function of the same name, such as `wirtinger`.
_LATE = {
    "orbits": ("Orbit", "orbit", "same_orbit"),
    "states": ("StateVector", "act", "chi", "dim", "inner", "invariant_observable"),
    "fields": ("ComplexField", "field_library", "parse_field_spec"),
    "extraction": ("NodalCurve", "SampleGrid", "extract", "extract_from_samples", "refine"),
    "project": ("VerificationReport", "project_diagram", "verify_knot_type"),
    "evolution": ("EvolutionConfig", "FieldState", "step", "track_nodal"),
}
_HOME = {name: module for module, names in _LATE.items() for name in names}
_SUBMODULES = (*_LATE, "kernels")


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
