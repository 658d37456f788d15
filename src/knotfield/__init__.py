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
from .orbits import Orbit, orbit, same_orbit  # noqa: F401
from .states import StateVector, act, chi, dim, inner, invariant_observable  # noqa: F401
from .wirtinger import WirtingerPresentation, abelianization_rank, wirtinger  # noqa: F401
from .fields import ComplexField, field_library, parse_field_spec  # noqa: F401
from .extraction import NodalCurve, SampleGrid, extract, extract_from_samples, refine  # noqa: F401
from .project import VerificationReport, project_diagram, verify_knot_type  # noqa: F401
from .evolution import EvolutionConfig, FieldState, step, track_nodal  # noqa: F401
