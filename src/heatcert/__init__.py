"""heatcert: heat kernels on weighted graphs and numerical certificates
for relative compactness of potential perturbations."""

from .graph import (
    Exhaustion,
    WeightedGraph,
    build_exhaustion,
    load_graph,
    lq_norm,
    make_graph,
    validate_graph,
)
from .bundle import (
    EndomorphismField,
    UnitaryConnection,
    decompose_potential,
)
from .operators import (
    OperatorMatrix,
    add_potential,
    assemble_covariant,
    assemble_laplacian,
    dirichlet_restriction,
    multiplication_operator,
    resolvent,
)
from .heat import (
    DEFAULT_TIMES,
    HeatKernel,
    kernel_from_semigroup,
    minimal_kernel,
    verify_axioms,
    verify_kernel,
    verify_rho_bound,
    verify_semigroup,
)
from .control import (
    ControlPair,
    F2Family,
    bakry_emery_factor,
    check_integrability,
    fit_control,
    graph_pair,
)
from .compactness import (
    CompactnessReport,
    LedgerRow,
    certify_compactness,
    check_2a_bound,
    check_2to2_bound,
    check_domination,
    check_hs_bound,
    check_resolvent_bound,
    check_resolvent_laplace,
    laplace_weight_integral,
    resolvent_via_laplace,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 3
