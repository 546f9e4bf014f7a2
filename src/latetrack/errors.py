"""Exception types shared across the toolkit.

The CLI maps each class to a distinct exit code (ValidationError 2,
DivergenceError 4; an OSError is 3), so raising the right one matters
beyond error text. An error about a file names it first, through naming.
"""

from contextlib import contextmanager


class ValidationError(ValueError):
    """Malformed input: bad box, bad config, mismatched log/sequence."""


class DivergenceError(RuntimeError):
    """An optimization run produced a non-finite loss."""


@contextmanager
def naming(source, *named):
    """Let a ValidationError raised inside name `source`: one whose
    message starts with neither `source` nor one of the files in `named`
    is raised again as "<source>: <message>"."""
    try:
        yield
    except ValidationError as exc:
        if str(exc).startswith((str(source), *map(str, named))):
            raise
        raise ValidationError(f"{source}: {exc}") from None
