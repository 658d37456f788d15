"""Exception types shared across the package."""


class KnotfieldError(Exception):
    """Base class for all domain errors raised by this package."""


class MosaicParseError(KnotfieldError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MoveTableError(KnotfieldError):
    """A move template or move-table file violates its invariants."""


class BudgetExceededError(KnotfieldError):
    """Orbit closure exceeded the configured member budget (partial orbit, never silently truncated)."""

    def __init__(self, budget, seen):
        super().__init__(f"orbit budget of {budget} members exceeded (at least {seen} reached)")
        self.budget = budget
        self.seen = seen


class CrossingCapError(KnotfieldError):
    """The exact bracket refuses diagrams above the crossing cap rather than
    approximate.  After k crossings its contraction holds at most 2^k
    partial states, so the cap bounds the worst case."""

    def __init__(self, crossings, cap):
        super().__init__(f"diagram has {crossings} crossings, above the exact state-sum cap of {cap}")
        self.crossings = crossings
        self.cap = cap


class ContractViolationError(KnotfieldError):
    """A user-supplied invariant turned out not to be constant on an orbit."""


class UndefinedPhaseError(KnotfieldError):
    """Phase requested at a point on (or too close to) the nodal set."""


class OpenChainError(KnotfieldError):
    """Nodal segments did not close up into loops (resolution too coarse)."""

    def __init__(self, message, endpoints=()):
        super().__init__(message)
        self.endpoints = list(endpoints)


class NonGenericProjectionError(KnotfieldError):
    """No generic projection direction found within the retry cap."""
