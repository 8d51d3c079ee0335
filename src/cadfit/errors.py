"""Exception types shared across the package.

A failure gets a class of its own only if a caller can tell it apart: an
``except`` clause names it, or a command can print it.  Any other guard
raises ``ValueError``, which a command reports the same way.
"""


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


class RenderInvalidError(CadfitError):
    """Rendered field has no surface: no voxel is solid, or every voxel is."""


class EmptySurfaceError(CadfitError):
    """Grid has no surface: no cell is inside, or every cell is."""


class ResolutionMismatchError(CadfitError):
    """Grid resolution is not divisible by the pooling resolution."""


class EndpointUnavailableError(CadfitError):
    """External generator endpoint cannot be reached at all."""


class GeneratorProtocolError(CadfitError):
    """External generator endpoint sent a malformed response."""


class GrammarExhaustedError(CadfitError):
    """No valid fragment found for a masked span within the retry budget."""


class ExhaustedAttemptsError(CadfitError):
    """Rejection sampling ran out of attempts."""
