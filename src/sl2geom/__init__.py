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
    hopf_project,
    left_translate_to_identity,
)
from .families import (
    HyperbolicCurve,
    ProfileFunction,
    affine_conoid,
    complex_circle,
    conoid,
    constant_curvature_curve,
    geodesic,
    geodesic_curvature,
    helicoidal_motion,
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
    NormalComponents,
    classify_gauss_map,
    frame_curvature_components,
    normal_components,
    normal_gauss_map,
    principal_frame,
)
from .metric import (
    CoordinateVector,
    SasakiData,
    SasakiResiduals,
    TangentVector,
    connection_table,
    covariant_derivative,
    curvature,
    curvature_contact_form,
    frame_at,
    metric_at,
    sasaki_data,
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
