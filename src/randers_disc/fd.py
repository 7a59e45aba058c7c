"""Finite-difference stencils on float- or array-valued callables.

The point and step may be arrays too, so one call differences a whole
array of nodes (normality, hessian_velocity_form, metric._position_gradient).

Second-order stencils are fine for most checks here, but the 1e-8
agreement targets on velocity Hessians need the 4th-order variants:
at usable steps the 2nd-order forms bottom out near 1e-6.
"""
from __future__ import annotations

from typing import Any, Callable

Fn = Callable[..., Any]   # floats or arrays in, a float or an array out

# offsets/coefficients of the 4th-order first-derivative stencil
_OFFS = (2, 1, -1, -2)
_COEF = (-1.0, 8.0, -8.0, 1.0)


def d1_central(f: Fn, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def d2_central(f: Fn, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def d1_4th(f: Fn, x, h):
    acc = 0.0
    for o, c in zip(_OFFS, _COEF):
        acc += c * f(x + o * h)
    return acc / (12.0 * h)


def d2_5pt(f: Fn, x, h):
    """4th-order second derivative."""
    return (
        -f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x) + 16.0 * f(x - h) - f(x - 2 * h)
    ) / (12.0 * h * h)


def mixed_2nd(f: Fn, x, y, hx, hy):
    return (
        f(x + hx, y + hy) - f(x + hx, y - hy) - f(x - hx, y + hy) + f(x - hx, y - hy)
    ) / (4.0 * hx * hy)


def mixed_4th(f: Fn, x, y, hx, hy):
    """4th-order mixed second derivative (nested 4-point rules, 16 evaluations)."""
    acc = 0.0
    for oi, ci in zip(_OFFS, _COEF):
        for oj, cj in zip(_OFFS, _COEF):
            acc += ci * cj * f(x + oi * hx, y + oj * hy)
    return acc / (144.0 * hx * hy)
