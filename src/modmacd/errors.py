"""Error types raised across the package.

Every error is either a UsageError (bad input from the caller; the command
line exits with code 2) or a ConsistencyError (a check on a computed result
failed; exit code 1).
"""


class ModmacdError(Exception):
    """Base class for all package-specific errors."""


class UsageError(ModmacdError):
    """Input outside the domain of the requested computation."""


class ConsistencyError(ModmacdError):
    """A computed result failed an internal consistency check."""


class NonUnitIntoNegativeExponent(ConsistencyError):
    """Substitution of a non-invertible value into a negative exponent."""


class ZeroDenominator(ConsistencyError):
    """Rational function with a zero denominator."""


class NegativeLength(UsageError):
    """Pochhammer symbol of negative length."""


class NegativeLambdaZero(UsageError):
    """Fusion normalizer with sum of multiplicities exceeding J."""


class MismatchedTops(UsageError):
    """Sequence pair whose last entries differ, or column data whose tops
    disagree with the partition multiplicities."""


class TruncationResidual(ConsistencyError):
    """Nonzero series coefficient above the proven degree bound."""


class NegativeDifference(UsageError):
    """Positive-form evaluation on a pair needing rotation first."""


class IndexOutOfRange(UsageError):
    """Rotation index outside 1..N."""


class NegativeInput(UsageError):
    """Negative argument where nonnegative integers are required."""


class InfeasibleMultiplicities(UsageError):
    """Fusion multiplicities that no word of the given length realizes."""


class TooFewVariables(UsageError):
    """Too few variables (or lattice rows) for a faithful expansion of the
    requested partition."""


class NonPolynomialCoefficient(ConsistencyError):
    """Integral-form coefficient failed to clear to a polynomial."""


class NegativeCoefficient(ConsistencyError):
    """A coefficient that is guaranteed nonnegative came out negative."""


class TruncationTooSmall(UsageError):
    """Series comparison requested at truncation degree < 1."""
