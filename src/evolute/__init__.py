"""Exact enumerative invariants of envelopes, evolutes, and their cuspidal loci."""

from .bundle import BundleSpace
from .chow import (
    IncompleteDescriptorError,
    SheafData,
    VarietyDescriptor,
    direct_sum,
    dual,
    integrate,
    kernel_from_trivial,
    segre,
    twist_by_line,
)
from .pipelines import (
    EnumerativeReport,
    curve_closed_forms,
    curve_report,
    hypersurface_report,
    locus_class,
    osculating_report,
    salmon_reference_report,
    sigma_degree,
    surface_closed_forms,
    surface_report,
    surface_report_from_degree,
    trifogli_degree,
    vertices_count,
)
from .ring import (
    GeneratorTable,
    GradedClass,
    NotInvertibleError,
    TableMismatchError,
    generator,
    unit,
    zero,
)
from .thom import UnsupportedCodimensionError, thom_class
from .varieties import (
    CurveInvariants,
    SurfaceChernNumbers,
    curve_geometry,
    hypersurface_geometry,
    surface_geometry,
)

__all__ = [
    "BundleSpace",
    "CurveInvariants",
    "EnumerativeReport",
    "GeneratorTable",
    "GradedClass",
    "IncompleteDescriptorError",
    "NotInvertibleError",
    "SheafData",
    "SurfaceChernNumbers",
    "TableMismatchError",
    "UnsupportedCodimensionError",
    "VarietyDescriptor",
    "curve_closed_forms",
    "curve_geometry",
    "curve_report",
    "direct_sum",
    "dual",
    "generator",
    "hypersurface_geometry",
    "hypersurface_report",
    "integrate",
    "kernel_from_trivial",
    "locus_class",
    "osculating_report",
    "salmon_reference_report",
    "segre",
    "sigma_degree",
    "surface_closed_forms",
    "surface_geometry",
    "surface_report",
    "surface_report_from_degree",
    "thom_class",
    "trifogli_degree",
    "twist_by_line",
    "unit",
    "vertices_count",
    "zero",
]

__version__ = "0.1.0"
