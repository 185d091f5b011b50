"""Gauge fixing: the fixed representative of a profile's phase/translation orbit.

The module holds `gauge_fix` alone.  The drift reduction and the changes
of variables between the three problems, which no command reads, are test
helpers (tests/drift.py).  The module keeps its name because the
benchmark's tracer wraps `fracnls.renorm.gauge_fix` and looks the module up
by that name.
"""

from __future__ import annotations

import numpy as np

from .spectral import Profile, translate

__all__ = ["gauge_fix"]


def gauge_fix(u: Profile) -> Profile:
    """Quotient the phase/translation symmetry: the fixed representative of u's orbit.

    Translates so the mass centroid (circular mean of |u|^2 on the torus)
    is 0, then rotates the phase so the zero-frequency Fourier coefficient
    is real and nonnegative; u = e^{i phi} v(. - y) and v fix to the same
    profile.
    """
    vals = u.values
    dens = np.abs(vals) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        raise ValueError("cannot gauge-fix the zero profile")
    z = np.sum(dens * np.exp(2j * np.pi * u.grid.x / u.grid.length))
    shift = float(np.angle(z) * u.grid.length / (2.0 * np.pi))
    centered = translate(u, -shift)
    zero_mode = np.sum(centered.values)
    phase = float(np.angle(zero_mode)) if zero_mode != 0 else 0.0
    return Profile(u.grid, centered.values * np.exp(-1j * phase))
