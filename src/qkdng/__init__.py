"""Non-Gaussianity witnesses and security bounds for entanglement-based QKD.

The package decides, for a configurable noisy link, whether the detected
light passes a non-Gaussianity witness and whether the Devetak-Winter key
rate stays positive, and maps the boundary curves of both regions over the
(transmittance, noise-mean) plane.
"""

from .channels import (
    ChannelConfig,
    LinkAssessment,
    NoiseModel,
    NoiseStatistics,
    assess,
    effective_detector,
    poisson_observables,
    thermal_observables,
)
from .errors import ConfigurationError, DomainError
from .keyrates import (
    S_MAX,
    KeyRates,
    Protocol,
    bell_from_qber,
    binary_entropy,
    dw_rate_bb84,
    dw_rate_di,
    key_rates,
    security_threshold,
)
from .photodetection import (
    DetectionPmf,
    DetectorKind,
    DetectorModel,
    PhotocountDistribution,
    bs_coefficient,
    detect_pmf,
    photocount_pmf,
)
from .scan import (
    ALL_CRITERIA,
    BoundaryColumn,
    BoundaryCurve,
    BoundaryPoint,
    Criterion,
    CriterionBoundary,
    RegionLabel,
    ScanConfig,
    classify,
    classify_assessment,
    indicator,
    max_noise,
    sweep,
)
from .witness import (
    CoincidenceStats,
    WitnessVerdict,
    pnrd_threshold,
    spad_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CRITERIA",
    "BoundaryColumn",
    "BoundaryCurve",
    "BoundaryPoint",
    "ChannelConfig",
    "CoincidenceStats",
    "ConfigurationError",
    "Criterion",
    "CriterionBoundary",
    "DetectionPmf",
    "DetectorKind",
    "DetectorModel",
    "DomainError",
    "KeyRates",
    "LinkAssessment",
    "NoiseModel",
    "NoiseStatistics",
    "PhotocountDistribution",
    "Protocol",
    "RegionLabel",
    "S_MAX",
    "ScanConfig",
    "WitnessVerdict",
    "assess",
    "bell_from_qber",
    "binary_entropy",
    "bs_coefficient",
    "classify",
    "classify_assessment",
    "detect_pmf",
    "dw_rate_bb84",
    "dw_rate_di",
    "effective_detector",
    "indicator",
    "key_rates",
    "max_noise",
    "photocount_pmf",
    "pnrd_threshold",
    "poisson_observables",
    "security_threshold",
    "spad_threshold",
    "sweep",
    "thermal_observables",
]
