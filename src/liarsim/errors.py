"""Exception types shared across the package."""


class LiarSimError(Exception):
    """Base class for all domain errors raised by liarsim."""


class NotSingleCycle(LiarSimError):
    """The reference map is not a single cycle over all sentences."""


class OutOfRange(LiarSimError):
    """An index, entry, or dimension falls outside its allowed range."""


class BoundExceeded(LiarSimError):
    """A combinatorial operation was requested beyond its safety bound."""


class NotParadoxical(LiarSimError):
    """The configuration has an even number of negations and admits a
    consistent classical truth assignment."""


class SupportOutsideSubspace(LiarSimError):
    """A state has amplitude on basis tuples outside the evolution subspace."""


class UnsupportedDimension(LiarSimError):
    """The constraint audit only covers per-sentence dimensions 2m and 2m-1."""
