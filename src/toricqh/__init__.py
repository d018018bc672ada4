"""Toric Fano quantum cohomology toolkit: reflexive polytopes, fans,
quantized Stanley-Reisner presentations, Landau-Ginzburg superpotentials,
critical-point solving, and Newton-polygon valuation reports."""

import importlib

from .batyrev import Presentation, emit_presentation, linear_ideal, presentation, quantum_sr_generators
from .corpus import CatalogEntry, PolytopeFile, catalog, entry, parse_polytope, serialize_polytope
from .fan import Cone, Fan, fan_from_reflexive, fan_product, is_complete, is_smooth, minimal_cone_containing, primitive_collections
from .lattice import Facet, Polytope, convex_hull_facets, dual_polytope, is_delzant, is_reflexive, lattice_points, normalized_volume, polytope_product
from .newton import ValuedPoly, blowup_family, lower_hull, quasimorphism_report, root_valuations
from .potential import Superpotential, build_potential
from .support import SupportFunction, is_strictly_convex, moment_polytope, monotone_support, support_from_polytope

__version__ = "0.1.0"

# The numeric layer, and with it numpy, loads on first use (PEP 562), so the
# exact geometry commands never import it.
_LAZY = {
    **dict.fromkeys(("CriticalPoint", "SolveReport", "SolverConfig", "Verdict", "classify", "solve", "verify_point"), "solver"),
    **dict.fromkeys(("Spectrum", "cp_closed_form", "critical_values"), "spectra"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
