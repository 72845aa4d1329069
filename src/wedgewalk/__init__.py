"""wedgewalk: reflected random walks in wedges and vases.

Discrete reflected walks whose radial projection is again Markov, the
uniform-fiber link that couples the two, Green-function time reversal, and
the special-function machinery for last-visited-side laws, with Monte Carlo
and exact-arithmetic verification throughout.
"""

__version__ = "0.1.0"

from .errors import (
    ParameterError,
    QuadratureError,
    ShapeError,
    SimulationTimeout,
    SolverError,
    UnreachableStateError,
    WedgewalkError,
)
from .geometry import (
    ShapeFunction,
    VaseGrid,
    WedgeLattice,
    WedgeSpec,
    build_vase_grid,
    build_wedge_lattice,
    linear_shape,
    parse_angle,
    power_shape,
    shape_from_spec,
    tabulated_shape,
)
from .kernels import (
    RateMatrix,
    StochasticKernel,
    projected_vase_rates,
    projected_wedge_chain,
    vase_rate_matrix,
    wedge_kernel,
    write_triplets,
    read_triplets,
)
from .intertwining import (
    MarkovLink,
    ResidualReport,
    build_link,
    filter_sample,
    harmonic_residual,
    intertwining_residual,
    semigroup_residual,
)
from .green_reversal import (
    GreenVector,
    ReversedChain,
    fit_green_constant,
    green_closed_form_1d,
    green_vector,
    hit_probability,
    nagasawa_reverse,
)
from .simulation import (
    EmpiricalDistribution,
    PathAggregate,
    PathRecord,
    Side,
    SideCurve,
    discrete_hit_prob,
    exact_exit_law,
    last_side_curve,
    run_paths,
    sample_path,
    seesaw,
    strip_seesaw_samples,
)
from .analytics import (
    Quadrature,
    bessel3_hit,
    chi_square,
    generator_residual,
    kolmogorov_critical,
    ks_statistic,
    ks_test,
    regularized_beta,
    scale_function,
    sc_deriv,
    sc_inverse,
    sc_map,
    watts_closed,
    watts_composed,
    watts_via_hypergeometric,
    watts_via_integral,
)
