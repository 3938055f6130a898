"""Desk-scale quantum-ergodicity laboratory for the Anderson model on regular graphs.

Modules: graphs (regular-graph generation and structure), anderson (operator
assembly and spectra), tree_green (cavity Green-function engine on the
infinite tree and on universal-cover lifts), qe (windowed eigenfunction
statistics), esd (spectral-measure diagnostics), cli (experiment runner).

Hot kernels (cavity sweeps, message passing) are vectorized numpy in
``_kernels``.
"""

__version__ = "0.1.0"

from .anderson import (  # noqa: F401
    PotentialAssignment,
    PotentialSpec,
    SpectralData,
    assemble,
    eigendecompose,
    sample_potential,
)
from .graphs import (  # noqa: F401
    InjectivityProfile,
    RegularGraph,
    distance_and_geodesic,
    exp_check,
    generate_random_regular,
    injectivity_radius,
    save_graph_json,
)
from .esd import (  # noqa: F401
    esd_compare,
    ids_cdf,
    kesten_mckay_cdf,
    lln_moment_check,
)
from .qe import (  # noqa: F401
    Kernel,
    KernelAverageCurve,
    Observable,
    QEReport,
    edge_kernel,
    kernel_average_general_curve,
    kernel_average_simple,
    make_observable,
    qe_statistic_diag,
    qe_statistic_kernel,
)
from .tree_green import (  # noqa: F401
    GreenMomentTable,
    LiftedGreen,
    distance_ratio_profile,
    free_forward_green,
    free_forward_green_complex,
    green_condition_moments,
    lifted_green,
    pair_lifts,
)
