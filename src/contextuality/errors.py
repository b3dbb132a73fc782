"""Exception hierarchy shared by all modules.

Precondition failures (bad user input, model violating a documented
precondition) are distinct from internal check failures (a computation
contradicting an invariant the library promises to uphold).  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""


class ContextualityError(Exception):
    """Base class for all library errors."""


class PreconditionError(ContextualityError):
    """An operation was called on input violating its documented precondition."""


class ModelFormatError(PreconditionError):
    """A model document failed to parse or validate."""


class StructureError(PreconditionError):
    """Algebraic structure data is inconsistent (names the offending elements)."""


class InternalCheckError(ContextualityError):
    """An internal cross-check failed; indicates a bug, not a user error.

    ``str`` is the failed check's own message; ``where``, when set by the
    query the check ran under, names that query (its context and section),
    and the CLI prints it before the message."""

    where = ""


def located(exc: InternalCheckError, context_index: int,
            section_index: int) -> InternalCheckError:
    """``exc``, naming the query of either analyzer that it leaves by
    context index and section position in its ``where``."""
    exc.where = f"context {context_index}, section {section_index}"
    return exc
