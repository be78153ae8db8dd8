"""Spherical-signal numerics toolkit.

Exact rotation-equivariant convolution on the sphere via harmonic-domain
filtering, with forward/inverse spherical Fourier transforms, spectral and
spatial pooling, rotation-invariant descriptors, SO(3) correlation alignment,
mesh-to-sphere projection, a toy-scale trainable network, and an
equivariance-error measurement harness.
"""

from .align import AlignmentResult, align_shapes, so3_correlate
from .equivariance import EquivarianceReport, measure
from .grid import SphericalGrid, make_grid
from .harmonics import HarmonicTable, assoc_legendre, build_table, sph_harmonic
from .mesh import (
    SphericalRepresentation,
    TriangleMesh,
    bounding_sphere,
    load_mesh,
    load_obj,
    load_off,
    project_mesh,
)
from .network import (
    LayerConfig,
    NetworkConfig,
    ParameterStore,
    TrainSchedule,
    augment,
    backward,
    count_parameters,
    forward,
    init_parameters,
    predict,
    stack_config,
    train,
    two_branch_config,
)
from .rotation import (
    RotationZYZ,
    WignerBlock,
    geodesic_distance,
    rotate_signal,
    rotate_spectrum,
    rotation_grid,
    random_rotations,
    sample_rotations,
    wigner_d,
)
from .sft import (
    SpectralCoeffs,
    SphericalSignal,
    bandlimit,
    coeff_index,
    evaluate_coeffs_at,
    isft,
    random_bandlimited_signal,
    random_coeffs,
    sft_direct,
    sft_sepvar,
)
from .spectral import (
    InvariantDescriptor,
    ZonalFilterSpec,
    conv_spectral,
    magl,
    max_pool,
    pointwise_nonlinearity,
    realize_filter,
    spectral_pool,
    weighted_avg_pool,
    wgap,
)

__version__ = "0.1.0"
