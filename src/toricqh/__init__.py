"""Toric Fano quantum cohomology toolkit: reflexive polytopes, fans,
quantized Stanley-Reisner presentations, Landau-Ginzburg superpotentials,
critical-point solving, and Newton-polygon valuation reports.

`import toricqh` loads no submodule: each public name imports its module,
and that module's dependencies, on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, listed module by module
_LAZY = {name: module for module, names in (
    ("batyrev", "Presentation presentation quantum_sr_generators"),
    ("corpus", "CatalogEntry catalog entry parse_polytope"),
    ("fan", "Cone Fan fan_from_reflexive is_complete is_smooth minimal_cone_containing "
            "primitive_collections"),
    ("lattice", "Facet Polytope convex_hull_facets dual_polytope is_delzant is_reflexive lattice_points "
                "normalized_volume"),
    ("newton", "ValuedPoly blowup_family lower_hull quasimorphism_report root_valuations"),
    ("potential", "Superpotential build_potential"),
    ("support", "SupportFunction is_strictly_convex moment_polytope monotone_support support_from_polytope"),
    ("solver", "CriticalPoint SolveReport SolverConfig Verdict classify solve verify_point"),
) for name in names.split()}

__all__ = list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
