"""Exception taxonomy shared by every module.

All library errors derive from PlaneTreesError so callers can catch the
whole family at once; the CLI maps subclasses onto exit codes.
"""
from __future__ import annotations


class PlaneTreesError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(PlaneTreesError):
    """Geometry violates general position (or a coordinate is not finite)."""


class InvalidParameter(PlaneTreesError):
    """A numeric or enum parameter is outside its documented domain."""


class InvariantViolation(PlaneTreesError):
    """A parsed point set breaks a structural invariant (duplicates, collinearity)."""


class ParseError(PlaneTreesError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class OddPointCount(PlaneTreesError):
    """Halving-line machinery requires an even number of points."""


class NoHLabeling(PlaneTreesError):
    """The point set admits no h-labeling; the message states why."""


class NoWLabeling(PlaneTreesError):
    """No point is incident to all halving lines."""


class NotATree(PlaneTreesError):
    """Edge set is not a tree on its vertex set."""


class NotWheelConfig(PlaneTreesError):
    """Operation requires a point set with a wheel config tag."""


class NotWCaterpillar(PlaneTreesError):
    """Input tree fails the w-caterpillar recognizer."""


class SizeMismatch(PlaneTreesError):
    """Vertex/slot counts disagree (tree vs 2n, caterpillar vs chain)."""


class NotAPartition(PlaneTreesError):
    """Claimed partition fails coverage, spanning, or planarity."""


class StructureViolation(PlaneTreesError):
    """A validated partition contradicts one of the structural lemmas.

    Reaching this on a genuinely valid partition would mean either an
    implementation bug or a counterexample to the underlying statement,
    so the witness is preserved for inspection.
    """

    def __init__(self, lemma: str, witness: object):
        self.lemma = lemma
        self.witness = witness
        super().__init__(f"{lemma}: witness {witness!r}")


class NotAHalvingLine(PlaneTreesError):
    """The supplied pair is not a 0-halving line of the point set."""


class SideViolation(PlaneTreesError):
    """A designated point is not strictly on the required side of a line."""


class HypothesisViolated(PlaneTreesError):
    """Point set fails the incidence hypothesis of the requested construction."""


class InvalidChoices(PlaneTreesError):
    """ConstructionChoices are malformed or select a forbidden step."""


class TooLarge(PlaneTreesError):
    """Exhaustive enumeration requested beyond the supported instance size."""
