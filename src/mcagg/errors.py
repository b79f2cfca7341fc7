"""Exception hierarchy shared across the package.

Validation problems raise ValidationError subclasses; file and format problems
raise InputError subclasses. The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""


class McaggError(Exception):
    pass


class ValidationError(McaggError):
    """Bad numerical input or inconsistent arguments."""


class InputError(McaggError):
    """Unreadable or malformed files."""


# core / matrices
class NonSquare(ValidationError):
    pass


class RowSumViolation(ValidationError):
    def __init__(self, row, total):
        self.row = row
        self.total = total
        super().__init__(f"row {row} sums to {total!r}, expected 1")


class NegativeEntry(ValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i},{j}) = {value!r} is negative")


class DimensionMismatch(ValidationError):
    pass


class NoConvergence(McaggError):
    """Iteration hit max_iter with residual above tol.

    Carries the last iterate so callers may proceed with it.
    """

    def __init__(self, message, last=None):
        self.last = last
        super().__init__(message)


# kl-geometry / annealing
class NonPositiveTemperature(ValidationError):
    pass


class EmptySuperstate(ValidationError):
    def __init__(self, j):
        self.j = j
        super().__init__(f"superstate {j} has vanishing posterior mass")


class InadmissiblePerturbation(ValidationError):
    pass


# selection
class NonConsecutiveK(ValidationError):
    def __init__(self, gaps):
        self.gaps = gaps
        super().__init__(f"partition set has gaps at k={sorted(gaps)}")


# generators
class BadParameter(ValidationError, ValueError):
    """A numeric parameter out of its range, a command-line token that does
    not parse as the number it names, or labels a CSV header cannot carry.
    Also a ValueError, so a caller catching it for a bad eps still does."""


class BlockTooSmall(ValidationError):
    pass


class CountMismatch(ValidationError):
    pass


# io
class ParseError(InputError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        super().__init__(message)


class RaggedRows(ParseError):
    pass


class BadBigram(ParseError):
    pass


class NonLetter(ParseError):
    pass


class NegativeCount(ParseError):
    pass


class BadAssignment(InputError):
    def __init__(self, k, message):
        self.k = k
        super().__init__(message)


class LabelMismatch(InputError):
    pass


class DuplicateLabel(InputError):
    pass
