"""Exception types shared across the package."""


class UmrowError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(UmrowError):
    pass


class FieldMismatch(UmrowError):
    pass


class DivisionByZero(UmrowError):
    pass


class RingMismatch(UmrowError):
    pass


class InvalidDivisor(UmrowError):
    pass


class NotInIdeal(UmrowError):
    pass


class DimensionOfZeroRing(UmrowError):
    pass


class ZeroRing(UmrowError):
    pass


class DuplicateVariable(UmrowError):
    pass


class NotUnimodular(UmrowError):
    pass


class ShapeError(UmrowError):
    pass


class BadCertificate(UmrowError):
    pass


class ShrinkFailed(UmrowError):
    pass


class CertificateAssemblyFailed(UmrowError):
    pass


class CharacteristicTwoUnsupported(UmrowError):
    pass


class InvalidUnit(UmrowError):
    pass


class HeightMismatch(UmrowError):
    pass


class NotWellDefined(UmrowError):
    """A proposed homomorphism fails to kill a defining relation."""

    def __init__(self, index, residue):
        super().__init__(f"relation {index} maps to nonzero residue: {residue}")
        self.index = index
        self.residue = residue


class ExponentOverflow(UmrowError):
    """A monomial's total degree would exceed ``poly.MAX_DEGREE`` (32767),
    the most the packed monomial form holds."""


class ParseError(UmrowError):
    """Syntax error in textual input; ``offset`` is a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
