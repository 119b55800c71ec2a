"""Continuous-time quantum walks on Hermitian-weighted graphs.

Simulation of U(t) = exp(-itA), detection and certification of perfect
state transfer, numerical search for pretty good state transfer, and the
spectral/structural conditions universal state transfer imposes.
"""

from .circulant_pst import (
    CertificateFailure,
    NoCertificate,
    PstCertificate,
    UpstReport,
    pst_spectral_certificate,
    pst_time,
    upst_certify,
)
from .graph import (
    HermitianGraph,
    apply_switching,
    cartesian_product,
    circulant,
    construct_cp,
    construct_k2,
    construct_k4,
    from_entries,
    graph_from_text,
    graph_to_text,
    hadamard_graph,
    load_graph,
    save_graph,
)
from .linalg import (
    MonomialMatrix,
    SpectralDecomposition,
    anticommuting_exponential,
    compose,
    evolution_operator,
    hermitian_eigendecomposition,
    nearest_monomial,
    projective_order,
    projectively_equal,
)
from .numbertheory import (
    gcd,
    independence_screen,
    integer_relation,
    modular_inverse,
    rational_reconstruct,
)
from .spectra import (
    circulant_eigenvalues,
    eigenvalue_ratio_rationality,
    eigenvalue_simplicity,
    flat_eigenbasis_check,
    phase_alignment,
)
from .swaut import (
    SwitchingGroup,
    enumerate_switching_automorphisms,
    is_switching_isomorphic,
    structure_report,
)
from .transfer import (
    KroneckerSolution,
    KroneckerTarget,
    TransferKind,
    TransferReport,
    fidelity,
    fidelity_scan,
    kronecker_time_search,
    periodicity_search,
    pgst_search,
    pst_check_at_time,
    scan_to_csv,
)

__version__ = "0.1.0"
