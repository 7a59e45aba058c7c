"""Metric configuration: drift strength b and the volume-form selector."""
from __future__ import annotations

import dataclasses
import enum

from .errors import DomainError


class VolumeForm(enum.Enum):
    """Volume densities for a Randers norm with constant drift norm b.

    Each form rescales the Riemannian area density by a constant in b,
    so picking a form amounts to picking the factor kappa(form, b).
    """

    BUSEMANN_HAUSDORFF = "bh"
    HOLMES_THOMPSON = "ht"
    MAX = "max"
    MIN = "min"

    @classmethod
    def coerce(cls, value: "VolumeForm | str") -> "VolumeForm":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise DomainError(f"unknown volume form {value!r}; expected one of {names}") from None


@dataclasses.dataclass(frozen=True, slots=True)
class RandersConfig:
    """b is the constant alpha-norm of the drift one-form; 0 <= b < 1."""

    b: float
    form: VolumeForm = VolumeForm.BUSEMANN_HAUSDORFF

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "form", VolumeForm.coerce(self.form))
        if not 0.0 <= self.b < 1.0:
            raise DomainError(f"b must satisfy 0 <= b < 1 (strong convexity); got {self.b}")

    @property
    def kappa(self) -> float:
        """Constant density factor of the chosen volume form."""
        b = self.b
        if self.form is VolumeForm.BUSEMANN_HAUSDORFF:
            return (1.0 - b * b) ** 1.5
        if self.form is VolumeForm.HOLMES_THOMPSON:
            return 1.0
        if self.form is VolumeForm.MAX:
            return (1.0 + b) ** 3
        return (1.0 - b) ** 3
