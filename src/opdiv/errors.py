"""Exception types shared across the package."""


class OpDivError(Exception):
    """Base class for all opdiv errors."""


class NotHermitian(OpDivError):
    """Input matrix is too far from its own conjugate transpose."""


class NotPositiveDefinite(OpDivError):
    """Matrix fails the strict positivity requirement."""


class ShapeMismatch(OpDivError):
    """Operands have incompatible dimensions."""


class NumericalFailure(OpDivError):
    """An eigensolver or downstream numerical step did not converge."""


class DomainViolation(OpDivError):
    """An eigenvalue lies outside a scalar function's domain.

    Carries the offending value and the domain it missed.
    """

    def __init__(self, value, domain, message=None):
        self.value = value
        self.domain = domain
        super().__init__(message or f"eigenvalue {value!r} outside domain {domain!r}")


class SizeLimit(OpDivError):
    """Tensor-product dimension exceeds the configured cap."""


class UnknownFunction(OpDivError):
    """Function id not in the catalog."""


class ParamOutOfRange(OpDivError):
    """Function parameters outside the supported range."""


class DerivativeRequired(OpDivError):
    """Operation needs f' but the function carries no derivative."""


class NotProbability(OpDivError):
    """Vector is not a probability distribution at the required tolerance."""


class EmptyField(OpDivError):
    """A weighted field was built with no entries."""


class IllConditioned(OpDivError):
    """Condition number exceeds the configured cap."""


class NonPositiveH(OpDivError):
    """h(R) is not strictly positive (or h lacks the strictly-positive flag)."""


class BadK(OpDivError):
    """Ky Fan index k outside 1..dim."""


class BadRange(OpDivError):
    """Numeric range or weight constraint violated."""


class NotUnital(OpDivError):
    """Map field declared unital but its identity image is not I."""


class UnknownCheck(OpDivError):
    """Check id not present in the registry."""
