"""Exception types shared across the package."""


class SoficError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(SoficError):
    """A presentation file or text could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyShiftError(SoficError):
    """The presented shift is empty (no bi-infinite paths survive)."""


class ResourceLimitError(SoficError):
    """A configurable size cap (e.g. on the cover's pair graph) was hit."""


class CoverInvariantError(SoficError):
    """A structural invariant of a cover graph was violated.

    On covers produced by :func:`soficshift.krieger.build_cover` this
    indicates an implementation bug; on hand-made or deliberately
    corrupted covers it flags the corruption.
    """


class AmbiguousLabelError(CoverInvariantError):
    """Two edges with the same label enter the same cover vertex.

    Valid covers are left-resolving, so backward label walks are
    deterministic; this error is only reachable on corrupted covers.
    """
