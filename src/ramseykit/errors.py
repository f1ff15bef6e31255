"""Exception types shared across the toolkit."""


class RamseykitError(Exception):
    """Base class for all toolkit errors."""


class PreconditionError(RamseykitError):
    """An operation was called outside its documented domain."""


class KcolParseError(RamseykitError):
    """Malformed kcol text; carries the byte offset of the first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BudgetExceededError(RamseykitError):
    """A node, wall-clock or byte budget ran out before the computation finished."""


class HypothesisError(RamseykitError):
    """A claim verifier's structural hypothesis does not hold on the input."""


class TwoMatchingExistsError(RamseykitError):
    """Two vertex-disjoint cross edges exist; carries one such matching."""

    def __init__(self, edge1, edge2):
        super().__init__(f"two vertex-disjoint edges exist: {edge1}, {edge2}")
        self.matching = (edge1, edge2)


class DecisionTreeExhaustedError(RamseykitError):
    """No branch of the case-2 decision tree fires on this input."""
