"""Exception types raised across the package.

Everything derives from EmbedPropError so callers (and the CLI) can separate
domain/data failures from ordinary Python errors.
"""


class EmbedPropError(Exception):
    """Base class for all embedprop errors."""


class DimensionMismatch(EmbedPropError):
    """Array shapes are incompatible with the requested operation."""


class NonFiniteInput(EmbedPropError):
    """An input array contains NaN or Inf entries."""


class NotSymmetric(EmbedPropError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPositiveDefinite(EmbedPropError):
    """Cholesky factorization hit a nonpositive pivot."""


class InvalidDistanceMatrix(EmbedPropError):
    """Squared-distance matrix is asymmetric, negative, or has a nonzero diagonal."""


class IsolatedNode(EmbedPropError):
    """An adjacency row sums to zero, so degree normalization is undefined."""


class EmptyClass(EmbedPropError):
    """A class has no labeled reference row."""


class LabelOutOfRange(EmbedPropError):
    """A label index falls outside the class-column range."""


class InsufficientClassSize(EmbedPropError):
    """A class does not have enough rows for the requested episode layout."""


class InsufficientClassCount(EmbedPropError):
    """The dataset has fewer classes than the episode needs."""


class NoUnlabeledPool(EmbedPropError):
    """Pseudo-labeling was requested but the episode has no unlabeled rows."""


class SameClassPair(EmbedPropError):
    """Interpolation endpoints must belong to different classes."""


class ParseError(EmbedPropError):
    """An embedding file could not be decoded."""


class InvariantViolation(EmbedPropError):
    """Decoded data breaks an EmbeddingSet invariant (ragged rows, duplicate id, non-finite value...)."""


class ResourceLimit(EmbedPropError):
    """A computation would need more memory than the machine has."""
