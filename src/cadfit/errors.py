"""Exception types shared across the package."""


class CadfitError(Exception):
    """Base class for every failure this package raises on purpose."""


class SequenceSyntaxError(CadfitError):
    """Token stream breaks the grammar: unknown token or wrong arity."""


class BinRangeError(CadfitError):
    """A quantized field lies outside its permitted bin range."""


class StructureError(CadfitError):
    """Sequence structure rule broken: missing end token, empty sketch, bad first op."""


class UnknownSegmentError(CadfitError):
    """A segment id does not resolve against the given sequence."""


class OverlappingSegmentsError(CadfitError):
    """Two segment ids cover overlapping token spans."""


class DegenerateLoopError(CadfitError):
    """Loop geometry collapses: zero-length chain step."""


class ZeroExtentError(CadfitError):
    """Both extrusion distances dequantize to zero."""


class RenderInvalidError(CadfitError):
    """Rendered field has no surface: no voxel is solid, or every voxel is."""


class EmptySurfaceError(CadfitError):
    """Grid has no surface: no cell is inside, or every cell is."""


class SpecMismatchError(CadfitError):
    """Two grids disagree on resolution or truncation."""


class EmptySetError(CadfitError):
    """A point set that must be non-empty is empty."""


class EmptyListError(CadfitError):
    """An outcome list that must be non-empty is empty."""


class NormalizationError(CadfitError):
    """Histogram does not normalize to a probability distribution."""


class ResolutionMismatchError(CadfitError):
    """Grid resolution is not divisible by the pooling resolution."""


class InvalidOriginalError(CadfitError):
    """The starting sequence fails validation."""


class EndpointUnavailableError(CadfitError):
    """External generator endpoint cannot be reached at all."""


class GeneratorProtocolError(CadfitError):
    """External generator endpoint sent a malformed response."""


class GrammarExhaustedError(CadfitError):
    """No valid fragment found for a masked span within the retry budget."""


class ExhaustedAttemptsError(CadfitError):
    """Rejection sampling ran out of attempts."""
