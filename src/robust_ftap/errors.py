"""Semantic exception hierarchy shared by all modules."""

from typing import Optional


class RobustFtapError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RobustFtapError):
    """Vector/matrix dimensions do not line up."""


class EmptyPolytope(RobustFtapError):
    """A feasible region required to be nonempty is empty."""


class EnumerationCapExceeded(RobustFtapError):
    """Subset or basis enumeration would exceed the configured cap.

    ``events``, when given, is the number of events the refused scan
    would have enumerated (2**size); ``bases``, the number of candidate
    bases a refused vertex enumeration would have tried (C(size, rank)).
    """

    def __init__(
        self,
        size: int,
        cap: int,
        events: Optional[int] = None,
        bases: Optional[int] = None,
    ):
        message = f"enumeration over {size} outcomes exceeds cap {cap}"
        if events is not None:
            message += f" ({events} events refused)"
        if bases is not None:
            message += f" ({bases} bases refused)"
        super().__init__(message)
        self.size = size
        self.cap = cap
        self.events = events
        self.bases = bases


class HypothesisViolated(RobustFtapError):
    """An (epsilon, delta) hypothesis required by a construction fails."""


class NaViolated(RobustFtapError):
    """An operation requiring no-arbitrage was called on a market with arbitrage."""


class EmptyMartingalePolytope(RobustFtapError):
    """No martingale measure exists; signals a no-arbitrage violation."""


class InputError(RobustFtapError):
    """Malformed input file or argument."""


class CertificateError(RobustFtapError):
    """A certificate failed its exact check; signals an implementation bug."""
