"""Exception types shared across the package."""


class GrassquantError(Exception):
    """Base class for all library errors."""


class DomainError(GrassquantError, ValueError):
    """Numeric parameters outside an operation's domain."""


class DimensionMismatch(GrassquantError, ValueError):
    """Ambient dimensions or scalar fields are incompatible."""


class OrthonormalityError(GrassquantError, ValueError):
    """A basis matrix fails the orthonormality tolerance."""


class RadiusTooLarge(GrassquantError, ValueError):
    """Closed-form volume requested beyond its validity radius."""


class SpecMismatch(GrassquantError, ValueError):
    """A plane or channel realization does not match a codebook's spec."""


class CapExceeded(GrassquantError, ValueError):
    """A derived codebook size exceeds the desk-scale cap."""


class ConfigError(GrassquantError, ValueError):
    """Invalid experiment configuration."""


class FormatError(GrassquantError, ValueError):
    """Malformed codebook file."""
