"""Spherical-signal numerics toolkit.

Exact rotation-equivariant convolution on the sphere via harmonic-domain
filtering, with forward/inverse spherical Fourier transforms, spectral and
spatial pooling, rotation-invariant descriptors, SO(3) correlation alignment,
mesh-to-sphere projection, a toy-scale trainable network, and an
equivariance-error measurement harness.

The public names below resolve on first access (PEP 562), so importing the
package, or a numpy-free submodule such as ``spheresig.cli``, does not load
numpy; the CLI relies on this to set ``--threads`` before BLAS starts.
"""

import importlib

_EXPORTS = {
    "align": ("AlignmentResult", "align_shapes", "so3_correlate"),
    "equivariance": ("EquivarianceReport", "measure"),
    "grid": ("SphericalGrid", "make_grid"),
    "harmonics": ("HarmonicTable", "assoc_legendre", "build_table", "sph_harmonic"),
    "mesh": (
        "SphericalRepresentation",
        "TriangleMesh",
        "bounding_sphere",
        "load_mesh",
        "load_obj",
        "load_off",
        "project_mesh",
    ),
    "network": (
        "LayerConfig",
        "NetworkConfig",
        "ParameterStore",
        "TrainSchedule",
        "augment",
        "backward",
        "count_parameters",
        "forward",
        "init_parameters",
        "predict",
        "stack_config",
        "train",
        "two_branch_config",
    ),
    "rotation": (
        "RotationZYZ",
        "geodesic_distance",
        "rotate_signal",
        "rotate_spectrum",
        "rotation_grid",
        "random_rotations",
        "wigner_d",
    ),
    "sft": (
        "SpectralCoeffs",
        "SphericalSignal",
        "bandlimit",
        "coeff_index",
        "evaluate_coeffs_at",
        "isft",
        "random_bandlimited_signal",
        "random_coeffs",
        "sft_direct",
        "sft_sepvar",
    ),
    "spectral": (
        "InvariantDescriptor",
        "ZonalFilterSpec",
        "conv_spectral",
        "magl",
        "max_pool",
        "pointwise_nonlinearity",
        "realize_filter",
        "spectral_pool",
        "weighted_avg_pool",
        "wgap",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is not None:
        value = getattr(importlib.import_module(f".{mod}", __name__), name)
    elif name in _EXPORTS:  # the submodules the package used to import eagerly
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
