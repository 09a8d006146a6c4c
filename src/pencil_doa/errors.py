"""Exception and warning types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value violates a structural constraint."""


class DegenerateSources(ValueError):
    """Source angles are duplicated or otherwise unusable."""


class ShapeError(ValueError):
    """Matrix operands have incompatible shapes."""


class TrialArityError(ValueError):
    """A Monte-Carlo trial reported the wrong number of estimates."""


class UnsupportedGeometry(ValueError):
    """The geometry is outside what the operation supports (spacing, |mu| < pi)."""


class PencilParamError(ValueError):
    """Pencil parameter outside the admissible range for the given sizes."""


class EmptyInput(ValueError):
    """An operation received an empty collection."""


class NumericalError(RuntimeError):
    """A numerical kernel failed to produce a usable result."""


class RankError(NumericalError):
    """Effective rank fell below the requested model order.

    Carries the singular values observed when the deficiency was detected.
    """

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class SingularFim(NumericalError):
    """Fisher information matrix is singular or not positive definite."""


class AmbiguousGeometryError(RuntimeError):
    """Two sources share a virtual steering vector and cannot be separated."""


class OutOfRangeWarning(UserWarning):
    """An eigenvalue mapped outside the visible region and was clamped."""


class LowSnrWarning(UserWarning):
    """All grating-lobe candidates scored at or below the noise floor."""


# Estimator-level failures the Monte-Carlo harness counts instead of propagating.
ESTIMATOR_FAILURES = (NumericalError, AmbiguousGeometryError, PencilParamError)
