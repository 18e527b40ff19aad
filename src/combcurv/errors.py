"""Exception types shared across the package."""


class CombCurvError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooHigh(CombCurvError):
    """An input simplex has more than 4 vertices (dimension cap is 3)."""


class DuplicateVertexInSimplex(CombCurvError):
    """An input simplex repeats a vertex."""


class BoundExceeded(CombCurvError):
    """A requested enumeration range exceeds the configured safety cap."""


class DisconnectedError(CombCurvError):
    """Two vertices requested in a metric query are not connected."""


class TooLarge(CombCurvError):
    """Input exceeds the configured size cap for an expensive computation."""


class NotACovering(CombCurvError):
    """A map fails the 1-ball isomorphism condition of a covering.

    Carries the offending vertex in ``vertex`` and a human-readable reason.
    """

    def __init__(self, vertex, reason):
        super().__init__(f"not a covering at vertex {vertex}: {reason}")
        self.vertex = vertex
        self.reason = reason


class NotFlag(CombCurvError):
    """A construction requires a flag complex and got a non-flag one."""


class InvariantViolation(CombCurvError):
    """A cover-construction invariant failed on a well-behaved input.

    ``which`` names the invariant, 'Q' or 'R' ((P) is a lemma of the
    expansion and is not checked); ``witness`` holds the
    offending configuration.
    """

    def __init__(self, which, witness, detail=""):
        super().__init__(f"invariant ({which}) violated: {detail}")
        self.which = which
        self.witness = witness


class HypothesisViolation(CombCurvError):
    """Recorded (not raised) when invariants fail on an input that already
    failed the construction hypotheses; kept as a diagnostic."""

    def __init__(self, which, witness, detail=""):
        super().__init__(f"expected failure, hypotheses unmet: ({which}) {detail}")
        self.which = which
        self.witness = witness


class NotPure(CombCurvError):
    """A 3-manifold validation got a complex with maximal simplices of
    dimension below 3.  ``witness`` names the least of them, ``simplex``,
    or None when the complex is empty.
    """

    def __init__(self, simplex):
        super().__init__(f"maximal simplex {simplex} has dimension below 3"
                         if simplex is not None else "complex has no tetrahedra")
        self.witness = {"kind": "not_pure", "simplex": simplex and list(simplex)}


class NotASphere(CombCurvError):
    """A complex expected to be a closed triangulated 2-sphere is not one."""


class NoFillingPair(CombCurvError):
    """No filling pair exists for a full 7-cycle; falsifies the expected
    filling property on an input that passed the sphere checks."""


class PreconditionNotMet(CombCurvError):
    """A checker's stated precondition failed; names the prerequisite and
    carries its failing verdict's ``witness``."""

    def __init__(self, name, detail="", witness=None):
        super().__init__(f"precondition not met: {name}" + (f" ({detail})" if detail else ""))
        self.name = name
        self.detail = detail
        self.witness = witness


class ParseError(CombCurvError):
    """Malformed complex file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
