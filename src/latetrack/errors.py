"""Exception types shared across the toolkit.

The CLI maps each class to a distinct exit code (ValidationError 2,
DivergenceError 4; an OSError is 3), so raising the right one matters
beyond error text.
"""


class ValidationError(ValueError):
    """Malformed input: bad box, bad config, mismatched log/sequence."""


class DivergenceError(RuntimeError):
    """An optimization run produced a non-finite loss."""
