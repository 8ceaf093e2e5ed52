"""Exception types shared across the package.

Every domain error derives from :class:`FramelabError`, which is a
``ValueError`` so that callers who do not care about the fine-grained
type can catch the usual thing.  :class:`InputError` marks malformed
input (bad files, bad parameters), :class:`PreconditionError` marks a
mathematically invalid request on well-formed data.  So a count below
its own floor (a dimension of 0) is an :class:`InputError`, and a
relation between counts that fails (N < d) a :class:`PreconditionError`.
The command line tool maps the former to exit code 2 and the latter to
exit code 3.
"""

from __future__ import annotations


class FramelabError(ValueError):
    """Base class for all errors raised by this package."""


class InputError(FramelabError):
    """Malformed or unparsable input."""


class PreconditionError(FramelabError):
    """A documented precondition of an operation was violated."""


# linalg

class NotSquareError(PreconditionError):
    """Matrix is not square."""


class NotHermitianError(PreconditionError):
    """Matrix asymmetry exceeds the allowed tolerance."""


class NoConvergenceError(PreconditionError):
    """Iterative eigensolver hit its sweep cap."""


class SingularOrIndefiniteError(PreconditionError):
    """Matrix has an eigenvalue below the positive-definite cutoff."""


class DimMismatchError(PreconditionError):
    """Operands have incompatible dimensions."""


# frames

class NotAFrameError(PreconditionError):
    """Vector set does not span, so frame-only operations are undefined."""


class NotUnitNormError(PreconditionError):
    """Operation requires unit-norm vectors."""


class TooFewVectorsError(PreconditionError):
    """Operation needs at least two vectors."""


class BadCardinalityError(PreconditionError):
    """Vector count is incompatible with the requested dimension."""


class BadSelectorError(PreconditionError):
    """Harmonic frame selector is not strictly increasing into 1..N."""


class NotParsevalError(PreconditionError):
    """Frame is not Parseval within tolerance."""


# povm

class BadPartitionError(PreconditionError):
    """Index partition overlaps or fails to cover the frame."""


class NotPovmError(PreconditionError):
    """Effects are invalid or do not sum to the identity."""


class BadFamilySizeError(PreconditionError):
    """Measure check needs POVM families of at least dim + 2 effects."""


# gleason

class BadNError(PreconditionError):
    """Cosine counterexample index must be congruent to 2 mod 4."""


class OutOfBallError(PreconditionError):
    """Argument leaves the closed unit ball where the function lives."""


class BadEpsilonError(PreconditionError):
    """Epsilon must lie strictly between 0 and 1/3."""


# waveforms

class NotPrimeError(PreconditionError):
    """Sequence length must be prime."""


class TooSmallError(PreconditionError):
    """Sequence length is below the supported minimum."""


class NotUnimodularError(PreconditionError):
    """Sequence entries must all have modulus 1."""
