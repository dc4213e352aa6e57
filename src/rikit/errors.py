"""Shared exception types."""


class RikitError(Exception):
    """Base class for all library errors."""


class NotAttainable(RikitError):
    """No index subset at the cut level reaches the requested measure exactly.

    Carries the two nearest attainable measures as ``lower`` and ``upper``.
    """

    def __init__(self, target, lower, upper):
        self.target = target
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"measure {target} not attainable; nearest attainable are "
            f"{lower} and {upper}"
        )


class UnsupportedCombination(RikitError):
    """Norm family parameters violate the family's invariants."""


class DegenerateRatio(RikitError):
    """Both norms in a ratio vanish (0/0)."""


class NotQuasiconcave(RikitError):
    """Input fails the quasi-concavity precondition."""

    def __init__(self, witness=None, reason=""):
        self.witness = witness
        self.reason = reason
        super().__init__(f"not quasi-concave: {reason} (witness {witness})")


class ZeroFunction(RikitError):
    """Operation undefined for the identically-zero input."""


class SolverStall(RikitError):
    """Convex solver did not reach the requested tolerance.

    The partial result (with its certificate) is attached as ``result``.
    """

    def __init__(self, result, message="solver stalled before tolerance"):
        self.result = result
        super().__init__(message)


class AllDegenerate(RikitError):
    """Every enumerated ball was skipped (both sides vanish)."""


class NotLipschitzOnSubset(RikitError):
    """Function is not L-Lipschitz on the given subset."""

    def __init__(self, witness, ratio):
        self.witness = witness
        self.ratio = ratio
        super().__init__(
            f"pair {witness} has difference quotient {ratio} above the "
            "declared Lipschitz constant"
        )


class BudgetExhausted(RikitError):
    """A level scan ran out of doublings before its test passed.

    This is the expected outcome when the weak estimate fails (e.g. for
    Marcinkiewicz-type norms without absolute continuity).
    """

    def __init__(self, stage, sigma_reached, trace=None):
        self.stage = stage
        self.sigma_reached = sigma_reached
        self.trace = trace or []
        super().__init__(
            f"scan budget exhausted in stage {stage!r} at sigma="
            f"{sigma_reached}"
        )


class HajlaszViolated(RikitError):
    """h fails the Hajlasz inequality for u on some pair."""

    def __init__(self, witness, gap):
        self.witness = witness
        self.gap = gap
        super().__init__(f"Hajlasz inequality fails at pair {witness} by {gap}")


class InvariantViolated(RikitError):
    """A computed result breaks an invariant the library guarantees.

    Raised instead of ``assert`` so the check also runs under ``python -O``.
    """
