"""Effective two-point impedance of finite R/L/C networks.

The package assembles the complex symmetric node admittance matrix of a
circuit, factorizes it as L u = lam conj(u) with orthonormal modes, and
sums mode contributions to obtain the impedance between any node pair.
Vanishing factorization values mark resonances.  An independent direct
linear solve of the node equations serves as a cross-check throughout.
"""

from .direct import (
    GroundedSystem,
    SingularSystem,
    check_current_conservation,
    grounded_system,
    solve_direct,
    solve_node_potentials,
)
from .errors import (
    ConvergenceError,
    DegenerateElementError,
    DisconnectedError,
    ImpnetError,
    InvalidNodeError,
    NearSingularError,
    NetlistSyntaxError,
    NoTrivialZeroError,
    NotSymmetricError,
    ValidationError,
)
from .impedance import (
    ImpedanceResult,
    ImpedanceStatus,
    impedance_matrix,
    two_point_impedance,
)
from .laplacian import (
    admittance_scale,
    assemble_laplacian,
    branch_admittance,
    check_angular_frequency,
    smallest_nontrivial_sigma,
)
from .network import (
    Boundary,
    Branch,
    Element,
    ElementKind,
    Network,
    grid_network,
    parse_netlist,
    ring_network,
    serialize_netlist,
)
from .resonance import (
    DetectionMethod,
    ResonanceReport,
    RingReactanceCheck,
    eigenvalue_product_identity_check,
    grid_resonances_analytic,
    ring_reactance_resonance_check,
    sweep_resonances,
)
from .takagi import (
    DEFAULT_ZERO_REL_TOL,
    TakagiDecomposition,
    ZeroModeClassification,
    classify_zero_modes,
    takagi_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "Branch",
    "ConvergenceError",
    "DEFAULT_ZERO_REL_TOL",
    "DegenerateElementError",
    "DetectionMethod",
    "DisconnectedError",
    "Element",
    "ElementKind",
    "GroundedSystem",
    "ImpedanceResult",
    "ImpedanceStatus",
    "ImpnetError",
    "InvalidNodeError",
    "NearSingularError",
    "NetlistSyntaxError",
    "Network",
    "NoTrivialZeroError",
    "NotSymmetricError",
    "ResonanceReport",
    "RingReactanceCheck",
    "TakagiDecomposition",
    "ValidationError",
    "ZeroModeClassification",
    "admittance_scale",
    "assemble_laplacian",
    "branch_admittance",
    "check_angular_frequency",
    "check_current_conservation",
    "classify_zero_modes",
    "eigenvalue_product_identity_check",
    "grid_network",
    "grid_resonances_analytic",
    "grounded_system",
    "impedance_matrix",
    "parse_netlist",
    "ring_network",
    "ring_reactance_resonance_check",
    "serialize_netlist",
    "smallest_nontrivial_sigma",
    "solve_direct",
    "solve_node_potentials",
    "sweep_resonances",
    "takagi_decompose",
    "two_point_impedance",
    "__version__",
]
