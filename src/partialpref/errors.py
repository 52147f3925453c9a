"""Exception hierarchy shared by all partialpref modules."""


class PrefError(Exception):
    """Base class for every error raised by this package.

    ``line`` and ``column`` place an input error in its file, when known.
    """

    line = column = None

    def at(self, line, column):
        """This error, placed at ``line`` and ``column`` of its input: its
        message gains the prefix ``line L, column C:``."""
        self.line, self.column = line, column
        self.args = (f"line {line}, column {column}: {self}",)
        return self


class MalformedId(PrefError):
    def __init__(self, ident):
        super().__init__(f"malformed identifier: {ident!r}")
        self.ident = ident


class UnknownAlternative(PrefError):
    def __init__(self, ident):
        super().__init__(f"alternative not in universe: {ident!r}")
        self.ident = ident


class StrictViolation(PrefError):
    """A declared strict fact is contradicted by the closure."""

    def __init__(self, left, right):
        super().__init__(
            f"strict fact {left} < {right} violated: closure also contains {right} <= {left}"
        )
        self.left = left
        self.right = right


class NotNormalized(PrefError):
    def __init__(self, total):
        super().__init__(f"weights sum to {total}, expected 1")
        self.total = total


class EmptySupport(PrefError):
    def __init__(self):
        super().__init__("lottery has empty support")


class NegativeWeight(PrefError):
    def __init__(self, alternative, weight):
        super().__init__(f"negative weight {weight} for {alternative!r}")
        self.alternative = alternative
        self.weight = weight


class AlphaOutOfRange(PrefError):
    def __init__(self, alpha):
        super().__init__(f"mixing coefficient {alpha} outside [0, 1]")
        self.alpha = alpha


class DegeneratePair(PrefError):
    def __init__(self):
        super().__init__("cannot decompose against two identical lotteries")


class DuplicateOfferName(PrefError):
    def __init__(self, name):
        super().__init__(f"duplicate offer name: {name!r}")
        self.name = name


class DuplicateName(PrefError):
    def __init__(self, name):
        super().__init__(f"duplicate name: {name!r}")
        self.name = name


class UnknownLotteryName(PrefError):
    def __init__(self, name):
        super().__init__(f"unknown lottery name in model: {name!r}")
        self.name = name


class ForeignLottery(PrefError):
    def __init__(self, lottery):
        super().__init__(f"relation pair references a lottery outside the family: {lottery}")
        self.lottery = lottery


class InconsistentTuple(PrefError):
    def __init__(self, case):
        super().__init__(f"case tuple is not realizable by any preorder: {case}")
        self.case = case


class TableMismatch(PrefError):
    """Regenerated case table differs from a transcription.

    ``diffs`` is a list of (case, expected_outcomes, computed_outcomes).
    """

    def __init__(self, diffs):
        super().__init__(f"case table mismatch on {len(diffs)} entr{'y' if len(diffs) == 1 else 'ies'}")
        self.diffs = diffs


class NotUtf8(PrefError):
    def __init__(self, path, line, column):
        super().__init__(f"{path}: line {line}, column {column}: expected UTF-8 text")
        self.path = path
        self.line = line
        self.column = column


class DslSyntaxError(PrefError):
    """Syntax error in an input grammar, placed through :meth:`PrefError.at`."""

    def __init__(self, expected):
        super().__init__(f"expected {expected}")
        self.expected = expected
