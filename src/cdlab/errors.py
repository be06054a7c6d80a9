"""Exception types shared across the package."""

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """Raised when a computation loses numerical meaning.

    Carries the last usable estimate (if any) in ``last_estimate`` so
    callers can inspect how far an iteration got before failing.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate
