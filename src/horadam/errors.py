"""Exception types raised across the library."""


class HoradamError(Exception):
    """Base class for all library-specific errors."""


class ZeroToNegativePower(HoradamError):
    """0 raised to a negative exponent."""


class NegativeK(HoradamError):
    """binomial() called with k < 0."""


class NonInvertible(HoradamError):
    """A value with no inverse: a rational whose denominator the modulus
    divides, or a residue with no inverse modulo the modulus (`ModInt`
    division by zero, or a negative power of a nonunit)."""


class DegenerateRoot(HoradamError):
    """p^2 - 4q = 0: repeated characteristic root, no Binet form."""


class EmptyRange(HoradamError):
    """term_range() called with lo > hi."""


class ConfigViolation(HoradamError):
    """A recurrence configuration failed its probe (or had a vanishing coefficient)."""


class DegenerateStride(HoradamError):
    """Alternating-stride lemma variant called with d = c (stride zero)."""


class SingularSummand(HoradamError):
    """A reciprocal sum touches a vanishing denominator."""

    def __init__(self, j, index):
        super().__init__(f"denominator term at index {index} (summand j={j}) is zero")
        self.j = j
        self.index = index


class GuardViolation(HoradamError):
    """A lemma coefficient required to be nonzero vanished for this assignment."""

    def __init__(self, name, detail=""):
        msg = f"guard violated: {name} = 0"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.name = name


class UnknownIdentity(HoradamError):
    """Identity key not present in the registry."""


class CompositeModulus(HoradamError):
    """A modulus that is not prime, for a `PrimeField` or a GF(M) parameter
    set: every nonzero residue must be invertible."""
