"""Exception hierarchy shared by all etaprover modules."""


class EtaProverError(Exception):
    """Base class for all errors raised by this package."""


class LatticeError(EtaProverError, ValueError):
    """An exponent is not a multiple of 1/24."""


class ZeroSeriesError(EtaProverError, ValueError):
    """A series with no nonzero term was used where a leading term is required."""


class FractionalExponentError(EtaProverError, ValueError):
    """An operation that needs integer exponents met a fractional one."""


class BeyondTruncationError(EtaProverError, ValueError):
    """A coefficient was requested past the truncation of a series."""


class NotAnEtaProductError(EtaProverError, ValueError):
    """A q-series or expression is not an eta-product where one is needed."""


class NotAFormError(EtaProverError, ValueError):
    """An eta-product is not a modular form with character on Gamma0(N)."""


class EmptyIdentityError(EtaProverError, ValueError):
    """An identity with no terms at all was passed to the normalizer."""


class MisalignedRowsError(EtaProverError, ValueError):
    """Order vectors with different cusp sequences were combined."""


class PreconditionError(EtaProverError, ValueError):
    """A prover precondition failed (e.g. p does not divide the level)."""


class InternalInconsistencyError(EtaProverError, RuntimeError):
    """A coefficient beyond the proven bound failed to vanish.

    This cannot happen for correct inputs once the modularity and order
    checks have passed, so it always indicates a bug in this package.
    """


class _PositionedError(EtaProverError, ValueError):
    """An error at a line and column of identity text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(_PositionedError):
    """Identity text could not be tokenized or parsed."""


class LoweringError(_PositionedError):
    """A parsed expression does not denote a linear combination of eta-products."""
