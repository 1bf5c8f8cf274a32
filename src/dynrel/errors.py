"""Exception hierarchy for the package.

Errors come in two families. ``InputError`` covers malformed or
inadmissible inputs: unreadable model files, dimension mismatches,
violated model assumptions. ``ConditionError`` covers mathematical
conditions that fail on structurally fine input: a matrix logarithm
that does not exist, a singular noise intensity, an eigenvalue clash in
a Lyapunov solve. The command-line front end maps the two families to
exit codes 2 and 3 respectively.
"""

__all__ = [
    "DynrelError",
    "InputError",
    "ConditionError",
    "SingularInput",
    "ExistenceFailure",
    "SpectrumConflict",
    "NotPSD",
    "NotStable",
    "NotObservable",
    "NotReachable",
    "BColumnDeficient",
    "RankCBDeficient",
    "PoleHit",
    "RankInconsistent",
    "InadmissibleSelection",
    "SelectionLimitExceeded",
    "NoAdmissibleSelection",
    "AlgebraicLoopSingular",
    "NonPositiveH",
    "LogFailure",
    "QdSingular",
    "NotSemidefinite",
    "ParseError",
    "DimensionMismatch",
    "SchemaVersionUnsupported",
]


class DynrelError(Exception):
    """Base class for every error raised by this package."""


class InputError(DynrelError):
    """Malformed, inconsistent, or inadmissible input."""


class ConditionError(DynrelError):
    """A mathematical condition required by the computation fails."""


# ---------------------------------------------------------------- kernels

class SingularInput(ConditionError):
    """A matrix that must be nonsingular is numerically singular."""


class ExistenceFailure(ConditionError):
    """No principal matrix logarithm: an eigenvalue sits on the closed
    negative real axis."""


class SpectrumConflict(ConditionError):
    """Eigenvalue configuration makes a Lyapunov equation singular
    (continuous: ``A`` and ``-A`` share an eigenvalue; discrete:
    spectral radius of ``A_d`` is not below one)."""


class NotPSD(ConditionError):
    """A matrix required to be positive semidefinite has an eigenvalue
    below the negativity allowance."""


# ------------------------------------------------- realizations / models

class NotStable(InputError):
    """The state matrix is not Hurwitz."""


class NotObservable(InputError):
    """The pair (C, A) fails the observability test."""


class NotReachable(InputError):
    """The pair (A, B) fails the reachability test."""


class BColumnDeficient(InputError):
    """The input matrix B does not have full column rank."""


class RankCBDeficient(InputError):
    """rank(CB) is below the number of shock channels."""


class PoleHit(ConditionError):
    """A transfer function was evaluated numerically at a pole."""


# --------------------------------------------------------------- spectral

class RankInconsistent(ConditionError):
    """Numerical ranks across the frequency grid disagree beyond
    isolated points."""


# --------------------------------------------------------------- relation

class InadmissibleSelection(InputError):
    """The selected rows do not give a numerically invertible C0*B."""


class SelectionLimitExceeded(InputError):
    """The number of candidate row subsets exceeds the enumeration cap."""


class NoAdmissibleSelection(ConditionError):
    """No row subset yields a numerically invertible C0*B."""


# --------------------------------------------------------------- feedback

class AlgebraicLoopSingular(ConditionError):
    """The feedback interconnection is not well posed: I - D_F D_H is
    numerically singular."""


# --------------------------------------------------------------- sampling

class NonPositiveH(InputError):
    """The sampling period must be strictly positive."""


class LogFailure(ConditionError):
    """The discrete state matrix admits no principal logarithm."""


class QdSingular(ConditionError):
    """The discrete noise intensity is numerically singular, so the
    triple cannot come from sampling a reachable model."""


class NotSemidefinite(ConditionError):
    """The candidate continuous noise intensity -(AP + PA') fails the
    semidefiniteness test."""


# ------------------------------------------------------------ model files

class ParseError(InputError):
    """The model file is not valid JSON or holds non-numeric data, or
    output labels are not a list of strings."""


class DimensionMismatch(InputError, ValueError):
    """A matrix, or a model file's list of rows or labels, has the wrong
    shape; the message names the offending field. Also a ``ValueError``,
    as the other refusals of malformed arrays are."""


class SchemaVersionUnsupported(InputError):
    """The model file declares a schema version this build cannot read."""
