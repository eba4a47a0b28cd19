"""Exact toric tools for Newton non-degenerate surface singularities in 3-space.

Everything runs on arbitrary-precision integers and fractions; there is no
floating point in any geometric decision (SVG rendering is the one exception,
and it never feeds back into computation).

Public names resolve on first use (PEP 562), so ``import torfan`` loads
only ``polyparse``, ``cones`` and ``profile`` (bound eagerly, below), and
each CLI verb loads only the modules it needs.  No module imports
``dataclasses``, so no process pays for it or for the ``inspect`` module it
loads: records are named tuples, or ``__slots__`` classes where they
iterate their own contents.
"""

import importlib

__version__ = "0.1.0"

# Bound eagerly: importing the submodule ``torfan.profile`` after this package
# would otherwise rebind the package attribute ``profile`` to that module.
from .profile import profile

_EXPORTS = {
    "polyparse": ("ParseError", "Polynomial", "parse_polynomial", "support"),
    "cones": (
        "Cone",
        "HilbertBasis",
        "cross",
        "dot",
        "hilbert_basis",
        "is_irreducible",
        "parse_cone",
        "primitive",
        "triangulate",
        "unimodular_det",
    ),
    "newton": (
        "Fan",
        "dual_newton_cones",
        "fan_consistency_report",
        "octant_solid_volume",
    ),
    "profile": (
        "AffineFunctional",
        "Profile",
        "contains_point",
        "facet_equation",
        "l_functional",
        "profile",
        "profile_lattice_points",
    ),
    "refine": (
        "RefinementReport",
        "refine_fan",
        "regular_refinement",
    ),
    "valuation": (
        "GroebnerCone",
        "JetSystem",
        "groebner_fan",
        "initial_form",
        "jet_equations",
        "tropical_variety",
        "w_order",
    ),
    "catalog": (
        "CatalogError",
        "default_grid",
        "entry",
        "families",
        "fixture_instances",
        "profile_discrepancy",
        "verify",
    ),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # No caching: tracers and tests patch the defining module, and a binding
    # cached here while a wrapper is installed would outlive its removal.
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module 'torfan' has no attribute {name!r}")
    return getattr(importlib.import_module(f"torfan.{mod}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
