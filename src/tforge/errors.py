"""Exception types shared across the package."""


class TforgeError(Exception):
    """Base class for all package errors."""


# algebra
class NotPrime(TforgeError):
    pass


class DegreeZero(TforgeError):
    pass


class CapExceeded(TforgeError):
    pass


class GroupMismatch(TforgeError):
    pass


class MissingCopyIndex(TforgeError):
    pass


# designs
class BadParameters(TforgeError):
    pass


class MissingHole(TforgeError):
    pass


class BadGroupSizes(TforgeError):
    pass


class MissingColoring(TforgeError):
    pass


class NoSingletonPoint(TforgeError):
    pass


class BadShape(TforgeError):
    pass


class MalformedGrid(TforgeError):
    """A grid file entry the grid cannot hold: the message names it."""


# codes
class SymbolOutOfRange(TforgeError):
    pass


class TooFewWords(TforgeError):
    pass


class NotVerified(TforgeError):
    pass


class NotEquitable(TforgeError):
    pass


class DistanceTooSmall(TforgeError):
    pass


class MTooSmall(TforgeError):
    pass


class MalformedCode(TforgeError):
    """A code file without one of its required keys."""


# starters
class NotOneMod6(TforgeError):
    pass


class NotPrimePower(TforgeError):
    pass


class StarterInvalid(TforgeError):
    pass


class MalformedStarter(TforgeError):
    """A starter file entry the starter cannot hold: the message names it."""


# constructions
class KTooLarge(TforgeError):
    pass


class HoleMismatch(TforgeError):
    pass


class ColorMissing(TforgeError):
    pass


class NoWitnessBlock(TforgeError):
    pass


class GroupCountMismatch(TforgeError):
    pass


class WMismatch(TforgeError):
    pass


class MissingIngredient(TforgeError):
    pass


class KeepOutOfRange(TforgeError):
    pass


# search
class InconsistentParams(TforgeError):
    pass


class BadKind(TforgeError):
    pass


class BudgetZero(TforgeError):
    """A node budget that is not a positive integer."""
