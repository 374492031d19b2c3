"""Shared fixtures and oracle helpers for the test suite."""

import math
import os

# One BLAS thread, set before numpy loads its BLAS: the suite's eigensolves
# are small, and on a 2-core host two BLAS threads ran it in 17 s against
# 9 s for one.  A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from impnet import Branch, Element, Network, ring_network

# Triangle of two opposite reactances and one resistor: the worked example
# with known factorization values and impedances.
SQRT3 = math.sqrt(3.0)

TRIANGLE_NETLIST = (
    "NET 3\n"
    "Z 1 2 0 1.7320508075688772\n"
    "Z 2 3 0 -1.7320508075688772\n"
    "Z 3 1 1 0\n"
)


@pytest.fixture
def triangle() -> Network:
    return ring_network(3, [
        Element.impedance(1j * SQRT3),
        Element.impedance(-1j * SQRT3),
        Element.impedance(1.0),
    ])


def lc_parallel(inductance: float, capacitance: float) -> Network:
    """Two nodes joined by an inductor and a capacitor in parallel."""
    return Network(2, (
        Branch(1, 2, Element.inductor(inductance)),
        Branch(1, 2, Element.capacitor(capacitance)),
    ))


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex symmetric matrix with entries of order one."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def random_connected_network(
    rng: np.random.Generator,
    node_lo: int,
    node_hi: int,
    kinds: str = "RLCZ",
    decades: float = 1.0,
) -> Network:
    """Random connected network: a random spanning tree plus extra branches.

    Element values are log-uniform in 10^(+-decades).
    """
    n = int(rng.integers(node_lo, node_hi + 1))
    branches = []
    for b in range(2, n + 1):
        a = int(rng.integers(1, b))
        branches.append(Branch(a, b, _random_element(rng, kinds, decades)))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        if a == b:
            continue
        branches.append(Branch(a, b, _random_element(rng, kinds, decades)))
    return Network(n, tuple(branches))


def _random_element(
    rng: np.random.Generator, kinds: str, decades: float
) -> Element:
    kind = kinds[int(rng.integers(0, len(kinds)))]
    value = float(10.0 ** rng.uniform(-decades, decades))
    if kind == "R":
        return Element.resistor(value)
    if kind == "L":
        return Element.inductor(value)
    if kind == "C":
        return Element.capacitor(value)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return Element.impedance(value * complex(math.cos(phase), math.sin(phase)))


def resistor_effective_resistance(net: Network, p: int, q: int) -> float:
    """Independent oracle for resistor-only networks.

    Uses the real spectral formula: sum over nonzero eigenpairs of the real
    Laplacian of (psi_p - psi_q)^2 / lambda.
    """
    lap = np.zeros((net.node_count, net.node_count))
    for br in net.branches:
        g = 1.0 / br.element.value
        a, b = br.node_a - 1, br.node_b - 1
        lap[a, b] -= g
        lap[b, a] -= g
        lap[a, a] += g
        lap[b, b] += g
    vals, vecs = np.linalg.eigh(lap)
    keep = vals > 1e-12 * vals.max()
    diffs = vecs[p - 1, keep] - vecs[q - 1, keep]
    return float(np.sum(diffs ** 2 / vals[keep]))
