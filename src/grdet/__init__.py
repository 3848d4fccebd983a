"""Fuglede-Kadison determinants, Mahler measures and algebraic entropy for
group-ring convolution operators over amenable groups.

The library numerically exercises the identity between the entropy of the
shift action on the dual of Z[G]/Z[G]f and the logarithm of the
Fuglede-Kadison determinant of f, through finite sections, perturbed
sections, polynomial traces, Mahler measures, Smith-normal-form lattice
counts and brute-force entropy on finite-group duals.
"""

from .errors import (
    DescriptorMismatch,
    DomainError,
    FormatError,
    ScaleExceeded,
    SingularCompression,
    UnsupportedFamily,
)
from .groups import (
    FolnerWindow,
    GroupDescriptor,
    GroupElement,
    boundary_ratio,
    cyclic_product,
    descriptor_string,
    folner_window,
    free_group_rank2,
    heisenberg3,
    identity,
    integer_lattice,
    inverse,
    multiply,
    parse_descriptor,
    window_from_coords,
)
from .ring import (
    RingElement,
    add,
    adjoint,
    convolve,
    identity_element,
    l1_norm,
    l1_norm_and_kernel,
    parse_gre,
    power,
    ring_element,
    scale,
    serialize_gre,
    trace_identity,
    zero_element,
)
from .factorization import Factorization, factor
from .sections import (
    CompressionMatrix,
    InvertibilityCertificate,
    certify_invertible,
    compress,
    sigma_min_estimate,
)
from .det import (
    ConvergenceTable,
    PerturbedCompression,
    SnfResult,
    build_perturbed_compression,
    det_exact,
    fk_finite_sections,
    fk_poly_trace,
    logabsdet,
    perturbation_study,
    poly_trace_interval,
    quotient_order,
    snf,
)
from .mahler import (
    circulant_logdet,
    mahler_grid,
    mahler_roots,
)
from .dynamics import (
    DualSolutionSet,
    EntropyEstimate,
    Tiling,
    TorusVector,
    count_lattice_ball,
    entropy_finite_group,
    extremal_count,
    orbit_distance,
    quasitile,
    shift,
    solve_dual_finite,
    verify_tiling,
)

__version__ = "0.1.0"
