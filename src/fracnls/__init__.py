"""Numerical laboratory for small traveling waves of the 1-D mass-critical
fractional NLS: solvers for the variational reductions, the renormalization
maps between them, linearized-operator diagnostics, and spatial-asymptotics
verification.  The package root binds only `__version__`; import from the
submodules (`fracnls.solvers`, `fracnls.cli`, ...)."""

__version__ = "0.1.0"
