"""Verification-grade geometry of SL(2,R) under the metric family g[nu]:
the group and its chart, the frame connection and curvature, immersed
surface machinery, the classical surface families, and Gauss-map
classification, every closed form paired with an independent check."""

from .core import (
    AdSPoint,
    ChartPoint,
    GroupElement,
    LieVector,
    MetricSign,
    OrbitClass,
    OrbitKind,
    adjoint_act,
    algebra_scalar_product,
    chart_to_group,
    classify_orbit,
    embed_ads,
    group_exp,
    group_to_chart,
    left_translate_to_identity,
)
from .families import (
    HyperbolicCurve,
    ProfileFunction,
    affine_conoid,
    chart_flow,
    complex_circle,
    conoid,
    constant_curvature_curve,
    geodesic,
    geodesic_curvature,
    hopf_cylinder,
    horocycle,
    hyperbolic_circle,
    hypercycle,
    lightcone_mean_curvature,
    lightcone_surface,
    minimal_profile,
    riccati_substitution,
    umbilic_profile,
)
from .gaussmap import (
    FrameCurvatureComponents,
    GaussClassification,
    classify_gauss_map,
    normal_gauss_map,
    principal_frame,
)
from .metric import (
    SasakiResiduals,
    connection_table,
    curvature,
    curvature_contact_form,
    koszul_connection,
    metric_at,
    sasaki_residuals,
    sectional_curvature,
)
from .surface import (
    Domain,
    FundamentalForm,
    Immersion,
    ShapeData,
    SurfaceJet,
    first_form,
    intrinsic_gauss_curvature,
    jet,
    second_form,
    shape_data,
    surface_shape,
    unit_normal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
