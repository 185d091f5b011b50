"""Root of the translated continued symbol y^s - s y + s - 1 + c.

Shared between the kernel evaluator (residue term) and the root-system
verification module.  The root is located through the polar parametrization
that zeroes the imaginary part, followed by bisection on the strictly
decreasing real part and a complex Newton polish.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


_SERIES_KMAX = 48  # highest binomial order kept by n_series
_PHI_TOL = 1e-14  # relative width of the final root-angle bracket
_NEWTON_STEPS = 3  # complex Newton polish steps after the bisection


@lru_cache(maxsize=32)
def binomial_tail_coeffs(s: float) -> tuple:
    """binom(s, k) for k = 2.._SERIES_KMAX: Taylor coefficients of (1+z)^s - 1 - s z."""
    coeffs = [s * (s - 1.0) / 2.0]
    for k in range(2, _SERIES_KMAX):
        coeffs.append(coeffs[-1] * (s - k) / (k + 1.0))
    return tuple(coeffs)


def n_series(z, s: float):
    """(1+z)^s - s z - 1 by its Taylor series, |z| <= 1/2; full relative accuracy.

    The direct formula cancels to O(z^2) and loses ~|eps/z| relative digits,
    which is visible in the multiplier at small kappa.
    """
    # Horner's rule, in place on an array (no temporaries, the same roundings);
    # z * 0.0 keeps z's type, so a Python complex keeps scalar arithmetic,
    # whose complex products round unlike numpy's array loops
    acc = z * 0.0
    for c in reversed(binomial_tail_coeffs(s)):
        acc *= z
        acc += c
    return acc * z * z


def n_analytic(z: complex, s: float) -> complex:
    """(z+1)^s - s z - 1 at one point, with the principal branch (cut along (-inf, -1]).

    Agrees with the real symbol right of -1; used by the root system and
    the kernel residue.  The series serves |z| <= 1/2, where the direct
    formula cancels.
    """
    z = np.asarray(z, dtype=complex)
    if abs(z) <= 0.5:
        return complex(n_series(complex(z), s))
    return complex((z + 1.0) ** s - s * z - 1.0)


class RootBracketError(RuntimeError):
    """The bracketing function does not change sign on (0, pi/2)."""


def radius_of_angle(phi: float, s: float) -> float:
    """r(phi) = (s sin(phi) / sin(s phi))^{1/(s-1)} at one angle phi > 0, the zero curve of Im."""
    return (s * np.sin(phi) / np.sin(s * phi)) ** (1.0 / (s - 1.0))


def translated_value(y: complex, s: float, c: float) -> complex:
    """y^s - s y + s - 1 + c, evaluated as n(y - 1) + c for stability near y = 1."""
    return n_analytic(complex(y) - 1.0, s) + c


def f11_on_curve(phi: float, s: float, c: float) -> float:
    """Real part of the translated symbol at angle phi on the zero-imaginary curve.

    Evaluated through the stable series form n(y - 1) + c; the direct trig
    expression cancels to O(phi^2) and drowns small shifts in roundoff.
    """
    return translated_value(radius_of_angle(phi, s) * np.exp(1j * phi), s, c).real


@lru_cache(maxsize=128)
def find_root_translated(s: float, c: float) -> complex:
    """Unique root of y^s - s y + s - 1 + c in the open upper-right quadrant.

    Requires c > 0 (guaranteed for positive multipliers); raises
    RootBracketError when the bracketing function keeps one sign, which
    signals a mass above the root-existence threshold.  Memoized: every
    pointwise kernel evaluation at one (s, c) shares one bisection.
    """
    if c <= 0.0:
        raise ValueError(f"shift c must be positive, got {c}")
    # g(0+) = c and g drops below c - s(s-1)(1 - cos phi): the root angle
    # scales like sqrt(2c/(s(s-1))), so the lower bracket must track it
    phi_root_scale = float(np.sqrt(2.0 * c / (s * (s - 1.0))))
    phi_lo = min(1e-6, 1e-2 * phi_root_scale)
    phi_hi = np.pi / 2.0 - 1e-6
    g_lo = float(f11_on_curve(phi_lo, s, c))
    g_hi = float(f11_on_curve(phi_hi, s, c))
    if not (g_lo > 0.0 > g_hi):
        raise RootBracketError(
            f"no sign change on (0, pi/2): g({phi_lo:.1e})={g_lo:.3e}, g(pi/2)={g_hi:.3e}"
        )
    # geometric bisection handles root angles many orders below 1; the
    # relative criterion must govern (an absolute width test would stop the
    # search long before reaching angles ~ sqrt(c) when c is tiny)
    for _ in range(220):
        if phi_hi - phi_lo <= _PHI_TOL * phi_hi or phi_hi / phi_lo <= 1.0 + 1e-13:
            break
        mid = np.sqrt(phi_lo * phi_hi)
        if f11_on_curve(mid, s, c) > 0.0:
            phi_lo = mid
        else:
            phi_hi = mid
    phi = np.sqrt(phi_lo * phi_hi)
    y = radius_of_angle(phi, s) * np.exp(1j * phi)
    for _ in range(_NEWTON_STEPS):
        dval = s * (y ** (s - 1.0) - 1.0)
        y = y - translated_value(y, s, c) / dval
    return complex(y)
