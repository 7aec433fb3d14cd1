"""Exception types shared across the library."""


class GroupError(Exception):
    """Base class for all errors raised by this library."""


class Singular(GroupError):
    """Matrix has determinant 0 mod p."""


class NotSimilitude(GroupError):
    """Matrix does not scale the symplectic form by any nonzero factor."""


class DimensionTooLarge(GroupError):
    """Exhaustive subspace routine refused: too many lines."""


class CapExceeded(GroupError):
    """Enumeration or index exceeded the configured cap."""


class NotNormal(GroupError):
    """Subgroup is not normal in its parent."""


class BadParameter(GroupError):
    """Construction parameter out of range."""


class BadCongruence(BadParameter):
    """Prime fails a required congruence condition."""


class SearchFailed(GroupError):
    """A deterministic construction search found no candidate."""


class ScalarSearchFailed(SearchFailed):
    """No scalar correction produced the target group order."""


class KindMismatch(GroupError):
    """Operation requires handles of a specific element kind."""


class NotAutomorphism(GroupError):
    """Supplied map fails the homomorphism check; carries a witness pair."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class DegreeMismatch(GroupError):
    """Permutations act on different point sets."""


class NotOrthogonal(GroupError):
    """Matrix preserves the alternating form but not the squaring form."""


class SearchExhausted(SearchFailed):
    """Lift offset search ran out of candidates."""


class ParseError(GroupError):
    """DSL syntax error with position information."""

    def __init__(self, msg, line, col, expected=()):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class UnknownBuilder(GroupError):
    """DSL call names no known constructor."""


class BadArity(GroupError):
    """DSL call has the wrong number or kind of arguments."""
