"""Unequal-dimensional quantization on Grassmann manifolds.

Chordal-distance geometry, closed-form small-ball volumes, distortion-rate
and rate-distortion bounds, codebook construction, and channel experiments
(Gaussian-noise decoding, limited-feedback MIMO beamforming).
"""

__version__ = "0.1.0"

from .applications import (
    AwgnConfig,
    BeamformingConfig,
    awgn_grassmann_decode_experiment,
    beamforming_selection,
    beamforming_throughput_experiment,
    right_singular_plane_bases,
)
from .codebook_io import load_codebook, save_codebook
from .errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    DomainError,
    FormatError,
    GrassquantError,
    OrthonormalityError,
    RadiusTooLarge,
    SpecMismatch,
)
from .manifold import (
    TOL_EQ,
    TOL_ORTHO,
    FieldKind,
    GrassmannSpec,
    Plane,
    PrincipalAngles,
    canonical_plane,
    chordal_distance,
    chordal_distance_sq,
    haar_unitary,
    principal_angles,
    same_plane,
    sample_isotropic,
    sample_isotropic_bases,
)
from .quantization import (
    MAX_CODEBOOK,
    BoundPair,
    Codebook,
    DistortionEstimate,
    Provenance,
    asymptotic_drf,
    asymptotic_rate,
    design_maxmin,
    distortion_mc,
    drf_bounds,
    quantize,
    random_code_optimality_experiment,
    random_codebook,
    rdf_bounds,
    rdf_bounds_log2,
)
from .rng import derive_rng
from .volume import (
    BallSpec,
    VolumeEstimate,
    VolumeMethod,
    ball_volume_approx,
    ball_volume_bounds,
    ball_volume_mc,
    ball_volume_mc_grid,
    barg_nogin_approx,
    chordal_sq_to_canonical,
    coeff_c,
    coeff_c1,
    log_coeff_c,
)

__all__ = [
    "__version__",
    # errors
    "GrassquantError",
    "DomainError",
    "DimensionMismatch",
    "OrthonormalityError",
    "RadiusTooLarge",
    "SpecMismatch",
    "CapExceeded",
    "ConfigError",
    "FormatError",
    # geometry
    "FieldKind",
    "GrassmannSpec",
    "Plane",
    "PrincipalAngles",
    "TOL_ORTHO",
    "TOL_EQ",
    "canonical_plane",
    "sample_isotropic",
    "sample_isotropic_bases",
    "haar_unitary",
    "principal_angles",
    "chordal_distance",
    "chordal_distance_sq",
    "same_plane",
    # volume
    "BallSpec",
    "VolumeEstimate",
    "VolumeMethod",
    "log_coeff_c",
    "coeff_c",
    "coeff_c1",
    "ball_volume_approx",
    "ball_volume_bounds",
    "barg_nogin_approx",
    "ball_volume_mc",
    "ball_volume_mc_grid",
    "chordal_sq_to_canonical",
    # quantization
    "MAX_CODEBOOK",
    "Provenance",
    "Codebook",
    "DistortionEstimate",
    "BoundPair",
    "quantize",
    "distortion_mc",
    "random_codebook",
    "design_maxmin",
    "drf_bounds",
    "rdf_bounds",
    "rdf_bounds_log2",
    "asymptotic_drf",
    "asymptotic_rate",
    "random_code_optimality_experiment",
    # applications
    "AwgnConfig",
    "BeamformingConfig",
    "awgn_grassmann_decode_experiment",
    "beamforming_selection",
    "beamforming_throughput_experiment",
    "right_singular_plane_bases",
    # io / rng
    "save_codebook",
    "load_codebook",
    "derive_rng",
]
