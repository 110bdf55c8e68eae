"""Exception hierarchy shared by all nlrank modules."""


class NLRankError(Exception):
    """Base class for all domain errors raised by nlrank."""


# lattice construction / catalog
class NotSymmetric(NLRankError):
    pass


class NotEven(NLRankError):
    pass


class Degenerate(NLRankError):
    pass


class BadGenus(NLRankError):
    pass


class BadScale(NLRankError):
    pass


# elementary number theory
class EvenDenominator(NLRankError):
    pass


class NonpositiveDenominator(NLRankError):
    pass


class TooLarge(NLRankError):
    pass


# Weil representation / dimension formula
class WeightTooSmall(NLRankError):
    pass


class BadSignature(NLRankError):
    pass


class HypothesisNotAsserted(NLRankError):
    pass


# Noether-Lefschetz labels
class NegativeDiscriminant(NLRankError):
    pass


# rank formula / tables
class BadRange(NLRankError):
    pass


# a count that must come out a nonnegative integer did not: the closed-form
# rank, or the Riemann-Roch dimension
class NonIntegerResult(NLRankError):
    pass
