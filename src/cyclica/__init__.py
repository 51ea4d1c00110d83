"""Numerical certification of backward-shift cyclicity for lacunary series
on vector-valued Hardy spaces of the disc and the polydisc."""

__version__ = "0.1.0"

from .core import (
    Subspace,
    Tolerances,
    VectorSeries,
    backward_shift,
    forward_shift,
    inner_product,
    numerical_span,
    project_vector,
    scalar_series,
)
from .coefspace import (
    CyclicityReport,
    TailModel,
    cyclicity_family,
    cyclicity_single,
    decompose,
    necessary_condition,
    tail_span,
    x_star,
)
from .spectrum import (
    IntegerSpectrum,
    MultiSpectrum,
    bounded_block_check,
    difference_multiplicity,
    lacunarity_ratio,
    polydisc_c1,
    polydisc_c2,
    residues_hit,
    spectrum_admits_SstarN,
)
from .constructions import (
    CrcPointSet,
    CrtSequenceSpec,
    DivisorClosedSet,
    abakumov_weights,
    crc_sequence,
)
from .multishift import (
    ReshapedSeries,
    af_membership,
    bounded_block_family_cyclicity,
    psi_reshape,
    psi_unreshape,
    residue_crosscheck,
    sstarN_cyclicity,
    sstarN_cyclicity_spectral,
)
from .unions import (
    DcLedger,
    ShiftedSpectrumFamily,
    construct_prescribed_spectra,
    dc_checks,
    multiplier_reduce,
    shifted_stack_cyclicity,
    stacked_sufficient,
)
from .blocks import (
    BlockSeries,
    PolyDirectionModel,
    blocks_cyclicity,
    blocks_decompose,
    blocks_necessary,
    compute_L,
    local_rank,
)
from .modelspace import (
    MatrixPolynomial,
    PotapovProduct,
    factorize_Ep,
    kernel_dim_theta0star,
    synthesize_from_vectors,
    verify_potapov,
)
from .orbit import (
    OrbitReport,
    one_in_orbit_check,
    orbit_project,
    orbit_project_polydisc,
    tail_diagnostics,
)
from .polydisc import (
    PolySeries,
    check_c1_c2,
    graded_lex_sorted,
    poly_backward_shift,
    polydisc_cyclicity,
)
from .verdicts import Verdict
