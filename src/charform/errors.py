"""Exception hierarchy shared by all charform modules."""


class CharformError(Exception):
    """Base class for all library errors."""


class FieldMismatch(CharformError):
    """Operands belong to different fields."""


class UnsupportedField(CharformError):
    """Operation is only defined over a different kind of field."""


class ZeroScalar(CharformError):
    """A nonzero scalar was required."""


class ZeroSlot(CharformError):
    """Pfister slots must be nonzero."""


class SingularForm(CharformError):
    """Operation requires a nonsingular quadratic form."""


class AlgebraMismatch(CharformError):
    """Operands belong to different algebras."""


class ShapeMismatch(CharformError):
    """Element shape does not match the algebra descriptor."""


class CoefficientNotRational(CharformError):
    """A reduced characteristic polynomial coefficient fell outside the base field."""


class NotPfaffian(CharformError):
    """Element has no reduced Pfaffian (it is not a symmetrized element)."""


class NoInvertibleWitness(CharformError):
    """Search for an invertible witness exhausted its budget."""


class UnsupportedDescriptor(CharformError):
    """The requested construction is not available for this descriptor."""


class InvalidCandidate(CharformError):
    """A user-supplied subalgebra candidate failed validation."""


class NotInLi(CharformError):
    """Element does not lie in the requested quadratic subalgebra."""


class DecompositionFailure(CharformError):
    """The Klein-group component decomposition failed an invariant."""


class NotInComponent(CharformError):
    """Element does not lie in the requested component."""


class NoAnisotropicVector(CharformError):
    """No anisotropic vector was found (should not happen for supported inputs)."""


class WitnessNotFound(CharformError):
    """A witness search exhausted its budget without success."""


class ParseError(CharformError):
    """Malformed descriptor text or JSON."""
