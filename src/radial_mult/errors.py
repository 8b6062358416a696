"""Exception types shared across the package."""


class RadialMultError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedTail(RadialMultError):
    """The symbol has no single limit at infinity (even/odd tails differ)."""


class NumericalFailure(RadialMultError):
    """A dense or iterative linear-algebra kernel did not converge."""


class TooLarge(RadialMultError):
    """The requested object exceeds the configured size cap."""


class DimensionMismatch(RadialMultError):
    """Operands live on incompatible spaces or dimensions."""
