"""favlab: quantitative projection geometry of planar self-similar sets.

Exact interval unions, Favard-length quadrature, radial visibility,
delta-discretized incidence counts, set-class certifiers, and the
experiment CLI.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
