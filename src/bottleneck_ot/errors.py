"""Exception types shared across the package."""


class BottleneckOTError(Exception):
    """Base class for all package errors."""


class MalformedInput(BottleneckOTError):
    """Input from outside the program (a file, an argument or a name) does not
    match what it documents; the CLI exits with code 2."""


class MetricViolation(BottleneckOTError):
    """Distance data is not a metric (asymmetry, bad diagonal, triangle failure)."""


class UnknownAtom(BottleneckOTError):
    """An atom index or label does not belong to the space."""


class EmptySet(BottleneckOTError):
    """A nonempty point set was required."""


class NotProbability(BottleneckOTError):
    """Operation requires a probability measure (total mass 1)."""


class SpaceMismatch(BottleneckOTError):
    """Operands live on different metric spaces."""


class TooLarge(BottleneckOTError):
    """Instance exceeds the size cap of an exhaustive routine."""


class UnsupportedP(BottleneckOTError):
    """Only p in {1, 2} is supported by the comparison solver."""


class TooManySets(BottleneckOTError):
    """Decomposition instance exceeds the subset-enumeration cap."""


class InfeasibleInstance(BottleneckOTError):
    """Decomposition preconditions (com1)/(com2) fail; carries the witness."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(str(verdict))


class CasePreconditionViolated(BottleneckOTError):
    """Case-3 preconditions (strict slack, positive targets) do not hold."""


class SupportTooLarge(BottleneckOTError):
    """Support exceeds the separating-subset enumeration cap."""


class EpsilonTooLarge(BottleneckOTError):
    """Epsilon must be strictly below the separating set's clearance."""


class NotInvariant(BottleneckOTError):
    """The probed set is not forward-invariant under the map."""


class NotInvariantMeasure(BottleneckOTError):
    """The probed measure is not a fixed point of the pushforward."""


class SolverInvariantError(BottleneckOTError):
    """A solver broke one of its own guarantees; a bug, never bad input."""
