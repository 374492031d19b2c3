"""Effective two-point impedance of finite R/L/C networks.

The package assembles the complex symmetric node admittance matrix of a
circuit, factorizes it as L u = lam conj(u) with orthonormal modes, and
sums mode contributions to obtain the impedance between any node pair.
Vanishing factorization values mark resonances.  An independent direct
linear solve of the node equations serves as a cross-check throughout.
Only ``direct`` and ``resonance`` need scipy; each is imported on first
access to one of its names (PEP 562): an impedance query loads numpy only.
"""

import importlib

from .errors import (
    ConvergenceError,
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
    SINGULAR_REL_TOL,
    admittance_scale,
    assemble_laplacian,
    branch_admittances,
    check_angular_frequency,
    laplacian_parts,
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
from .takagi import (
    TakagiDecomposition,
    ZeroModeClassification,
    classify_zero_modes,
    takagi_decompose,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(("SingularSystem", "check_current_conservation", "solve_direct",
                       "solve_node_potentials"), "direct") | dict.fromkeys((
    "DetectionMethod", "ResonanceReport", "RingReactanceCheck",
    "eigenvalue_product_identity_check", "find_resonances", "grid_resonances_analytic",
    "ring_reactance_resonance_check"), "resonance")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Boundary",
    "Branch",
    "ConvergenceError",
    "DetectionMethod",
    "DisconnectedError",
    "Element",
    "ElementKind",
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
    "SINGULAR_REL_TOL",
    "TakagiDecomposition",
    "ValidationError",
    "ZeroModeClassification",
    "admittance_scale",
    "assemble_laplacian",
    "branch_admittances",
    "check_angular_frequency",
    "check_current_conservation",
    "classify_zero_modes",
    "eigenvalue_product_identity_check",
    "find_resonances",
    "grid_network",
    "grid_resonances_analytic",
    "impedance_matrix",
    "laplacian_parts",
    "parse_netlist",
    "ring_network",
    "ring_reactance_resonance_check",
    "serialize_netlist",
    "solve_direct",
    "solve_node_potentials",
    "takagi_decompose",
    "two_point_impedance",
    "__version__",
]
