"""Exception hierarchy shared by the whole package."""


class LfgError(Exception):
    """Base class for all errors raised by this package."""


class _Positioned(LfgError):
    """An error that may carry a 1-based position, prefixed to its message."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "%d:%d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class SignatureError(_Positioned):
    """A name does not resolve against the signature, or the signature
    itself is unusable (reserved word, non-identifier, ...)."""


class FormulaSyntaxError(_Positioned):
    """Malformed concrete formula syntax.  Carries a 1-based position."""


class GrammarSyntaxError(_Positioned):
    """Malformed grammar file.  Carries a 1-based position."""


class GrammarError(LfgError):
    """A structurally broken grammar (empty rule set and the like)."""


class ModelFormatError(LfgError):
    """A model document does not follow the serialization format."""


class UnknownNodeError(LfgError):
    """A node id was passed that is not part of the structure at hand."""
