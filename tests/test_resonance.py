"""Resonance detection: closed forms, ring identities, the LC pencil."""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from impnet import (
    Boundary,
    Branch,
    ConvergenceError,
    DetectionMethod,
    Element,
    ElementKind,
    NearSingularError,
    ImpedanceStatus,
    Network,
    ResonanceReport,
    ValidationError,
    eigenvalue_product_identity_check,
    find_resonances,
    grid_network,
    grid_resonances_analytic,
    laplacian_parts,
    parse_netlist,
    ring_network,
    ring_reactance_resonance_check,
    two_point_impedance,
)
from impnet import resonance
from conftest import lc_parallel, random_connected_network
from test_cli_robustness import _random_netlist

# ── closed-form grid frequencies ─────────────────────────────────────────

def test_free_grid_3x2_frequencies():
    rep = grid_resonances_analytic(3, 2, 1.0, 1.0)
    want = sorted([
        math.sin(math.pi / 4.0) / math.sin(math.pi / 6.0),
        math.sin(math.pi / 4.0) / math.sin(2.0 * math.pi / 6.0),
    ])
    assert rep.method is DetectionMethod.ANALYTIC
    assert rep.raw_count == 2
    assert np.allclose(rep.omegas, want, rtol=1e-14)


def test_free_grid_3x3_merges_coincident_frequencies():
    rep = grid_resonances_analytic(3, 3, 1.0, 1.0)
    # four (i, j) combinations, but omega_11 = omega_22: three distinct
    assert rep.raw_count == 4
    assert rep.distinct_count == 3
    want = [1.0 / math.sqrt(3.0), 1.0, math.sqrt(3.0)]
    assert np.allclose(rep.omegas, want, rtol=1e-14)


def test_free_grid_4x3_six_distinct():
    rep = grid_resonances_analytic(4, 3, 1.0, 1.0)
    assert rep.raw_count == 6
    assert rep.distinct_count == 6


def test_grid_frequencies_scale_with_lc():
    base = grid_resonances_analytic(3, 3, 1.0, 1.0)
    scaled = grid_resonances_analytic(3, 3, 4.0, 9.0)
    factor = 1.0 / math.sqrt(4.0 * 9.0)
    assert np.allclose(scaled.omegas, np.array(base.omegas) * factor, rtol=1e-14)


def test_grid_analytic_validation():
    with pytest.raises(ValidationError):
        grid_resonances_analytic(1, 3, 1.0, 1.0)
    with pytest.raises(ValidationError):
        grid_resonances_analytic(3, 3, 0.0, 1.0)



def test_grid_analytic_follows_grid_network_rules():
    # the closed form takes exactly the L and C that grid_network takes
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValidationError):
            grid_network(3, 3, bad, 1.0)
        with pytest.raises(ValidationError):
            grid_resonances_analytic(3, 3, bad, 1.0)
    # L C = 1e400 overflows, but 1 / sqrt(L C) = 1e-200 does not
    grid_network(3, 3, 1e200, 1e200)
    base = grid_resonances_analytic(3, 3, 1.0, 1.0).omegas
    huge = grid_resonances_analytic(3, 3, 1e200, 1e200).omegas
    assert np.allclose(np.array(huge) * 1e200, base, rtol=1e-14)


def test_grid_analytic_rejects_overflowing_base_frequency():
    # grid_network takes subnormal L and C, but 1 / (sqrt(L) sqrt(C)) overflows
    grid_network(3, 3, 5e-324, 5e-324)
    with pytest.raises(ValidationError, match="is not finite"):
        grid_resonances_analytic(3, 3, 5e-324, 5e-324)


# ── pencil agrees with closed forms ───────────────────────────────────────

@pytest.mark.parametrize("shape", [(3, 2), (3, 3), (4, 3)])
def test_sweep_matches_analytic_free_grid(shape):
    m, n = shape
    rep_a = grid_resonances_analytic(m, n, 1.0, 1.0)
    net = grid_network(m, n, 1.0, 1.0)
    rep_s = find_resonances(net, min(rep_a.omegas) * 0.8, max(rep_a.omegas) * 1.2)
    assert rep_s.distinct_count == rep_a.distinct_count
    for ws, wa in zip(rep_s.omegas, rep_a.omegas):
        assert abs(ws - wa) <= 1e-6 * wa


@pytest.mark.parametrize("shape,count", [((2, 2), 1), ((3, 3), 1), ((4, 3), 2)])
def test_sweep_matches_toroidal_enumeration(shape, count):
    # Direct enumeration of |sin(n pi/N)/sin(m pi/M)| collapses more
    # coincidences than the integral-part counting rule [(M+1)/2][(N+1)/2]
    # predicts for these shapes (that rule gives 1, 4, 4).  The pencil is the
    # ground truth here and it agrees with the enumeration.
    m, n = shape
    rep_a = grid_resonances_analytic(m, n, 1.0, 1.0, Boundary.TOROIDAL)
    assert rep_a.distinct_count == count
    counting_rule = ((m + 1) // 2) * ((n + 1) // 2)
    if counting_rule != rep_a.distinct_count:
        print(
            f"toroidal ({m},{n}): enumeration gives {rep_a.distinct_count} "
            f"distinct frequencies, counting rule [(M+1)/2][(N+1)/2] gives "
            f"{counting_rule}"
        )
    net = grid_network(m, n, 1.0, 1.0, Boundary.TOROIDAL)
    rep_s = find_resonances(net, min(rep_a.omegas) * 0.8, max(rep_a.omegas) * 1.2)
    assert rep_s.distinct_count == rep_a.distinct_count
    for ws, wa in zip(rep_s.omegas, rep_a.omegas):
        assert abs(ws - wa) <= 1e-6 * wa


def test_sweep_lc_parallel_single_sharp_resonance():
    rep = find_resonances(lc_parallel(1.0, 1.0), 0.5, 2.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] - 1.0) <= 1e-9


def test_sweep_resistor_network_finds_nothing():
    net = ring_network(4, [Element.resistor(1.0)] * 4)
    rep = find_resonances(net, 0.1, 10.0)
    assert rep.omegas == ()
    assert rep.distinct_count == 0


@pytest.mark.parametrize("netlist", [
    "NET 3\nL 1 2 1e-300\nL 2 3 4e+307\n",
    "NET 3\nC 1 2 1e-300\nC 2 3 4e+307\n",
], ids=["L-only", "C-only"])
def test_network_that_cannot_resonate_skips_the_eigensolve(monkeypatch, netlist):
    # Balancing underflows the tiny branch, and the eigensolve would fail;
    # with no Z and no L or no C there is no root to look for.
    def fail(*args, **kwargs):
        raise AssertionError("no eigensolve expected")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    monkeypatch.setattr(scipy.linalg, "eig", fail)
    rep = find_resonances(parse_netlist(netlist), 1e-300, 1e300)
    assert rep == ResonanceReport((), (), DetectionMethod.PENCIL, 0, 0, 0)
    # the input errors of the parts still come first
    with pytest.raises(ValidationError, match="inductor 1e-310 at omega 1.0 is not finite"):
        find_resonances(parse_netlist("NET 2\nL 1 2 1e-310\n"), 1e-300, 1e300)


@pytest.mark.parametrize("kinds", ["L", "C", "RL", "RC"])
def test_no_root_rule_hides_no_root(kinds):
    # the eigensolve that find_resonances skips for these kinds finds nothing
    rng = np.random.default_rng(53)
    for decades in (1.0, 3.0, 6.0):
        for _ in range(60):
            net = random_connected_network(rng, 5, 30, kinds, decades)
            while len(set(net.kinds.tolist())) < len(kinds):  # each kind present
                net = random_connected_network(rng, 5, 30, kinds, decades)
            pencil = resonance._balance(*laplacian_parts(net))
            omegas, z = resonance._pencil_roots(
                pencil, 1e-12, 1e12, None if "R" in kinds else net)
            assert omegas.size == z.shape[1] == 0, (kinds, decades, net)


@pytest.mark.parametrize("k", [1e170, 1e-170, 1e300, 1e-300])
def test_sweep_independent_of_units(k):
    # The L-L-C ring with every impedance scaled by k: sigma of the raw
    # Laplacian would underflow (k >= 1e170) or overflow (k <= 1e-170).
    net = ring_network(3, [
        Element.inductor(k), Element.capacitor(1.0 / k), Element.inductor(k),
    ])
    rep = find_resonances(net, 0.1, 10.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] * math.sqrt(2.0) - 1.0) <= 1e-7
    # the residual is the smallest |lambda| in siemens, tiny against 1/k
    assert 0.0 <= rep.residuals[0] <= 1e-6 / k
    json.dumps({"omegas": rep.omegas, "residuals": rep.residuals}, allow_nan=False)


@pytest.mark.parametrize("lo,hi", [(1e-9, 1e3), (1e-3, 1e9)])
def test_pencil_wide_ranges_find_every_grid_resonance(lo, hi):
    # The scaling does not depend on the range: all 43 closed-form values of
    # the 8x8 free grid are found on both ranges, and any further frequency
    # (near omega -> 0, where |lambda| ~ omega C drops below the rule) is one
    # the impedance verdict calls RESONANT.
    want = np.array(grid_resonances_analytic(8, 8, 1.0, 1.0).omegas)
    net = grid_network(8, 8, 1.0, 1.0)
    got = np.array(find_resonances(net, lo, hi).omegas)
    dev = np.abs(got[:, None] - want[None, :]) / want[None, :]
    assert (dev.min(axis=0) <= 1e-12).all()
    for w in got[dev.min(axis=1) > 1e-12]:
        assert two_point_impedance(net, float(w), 1, 2).status is ImpedanceStatus.RESONANT


def test_pencil_ring_with_fixed_reactance():
    # L = C = 1 and a fixed j*1 ohm in one ring: the reactances sum to zero
    # where omega - 1/omega + 1 = 0; the pencil's Y part is complex.
    lossless = ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.impedance(1j),
    ])
    rep = find_resonances(lossless, 0.1, 10.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] / ((math.sqrt(5.0) - 1.0) / 2.0) - 1.0) <= 1e-12
    lossy = ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.impedance(1 + 1j),
    ])
    assert find_resonances(lossy, 0.1, 10.0).omegas == ()


# ── the LC pencil in t^2 ─────────────────────────────────────────────────

@pytest.mark.parametrize("net,half", [
    (grid_network(6, 6, 1.0, 1.0), True),
    (grid_network(8, 8, 1.0, 1.0, Boundary.TOROIDAL), True),
    (random_connected_network(np.random.default_rng(3), 8, 12, "LC", 2.0), True),
    (ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.impedance(1j),
    ]), False),
    (ring_network(3, [
        Element.resistor(0.1), Element.inductor(1.0), Element.capacitor(1.0),
    ]), False),
], ids=["free6x6", "toroidal8x8", "random-lc", "ring-LCZ", "ring-RLC"])
def test_lc_networks_take_the_half_size_pencil(monkeypatch, net, half):
    # With no R or Z branch the search is one symmetric-definite eigh of
    # order n - 1 in t^2; otherwise one QZ of the 2(n - 1) companion
    # linearization.
    orders = {"eig": [], "eigh": []}

    def recording(name):
        solver = getattr(scipy.linalg, name)

        def record(a, b, **kwargs):
            orders[name].append(a.shape[0])
            return solver(a, b, **kwargs)

        return record

    for name in orders:
        monkeypatch.setattr(resonance.scipy.linalg, name, recording(name))
    find_resonances(net, 0.1, 10.0)
    m = net.node_count - 1
    if half:
        assert orders == {"eig": [], "eigh": [m]}
    else:
        assert orders == {"eig": [2 * m], "eigh": []}


def _oracle_omegas(net, lo, hi):
    """Distinct LC resonances in [lo, hi] from the symmetric-definite pencil.

    Gamma x = tau^2 C x off the constant vector is a0 x = mu (a0 + a2) x
    with mu = tau^2 / (1 + tau^2), a0 + a2 positive definite for a
    connected network; mu = 1 (tau = inf) comes from directions that no
    capacitor reaches.  tau is omega in the balanced units 2^-k omega.
    """
    pencil = resonance._balance(*laplacian_parts(net))
    q = scipy.linalg.null_space(np.ones((1, net.node_count)))
    a0, a2 = q.T @ pencil.g @ q, q.T @ pencil.c @ q
    mu = scipy.linalg.eigh(a0, a0 + a2, eigvals_only=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        omegas = np.ldexp(np.sqrt(mu / (1.0 - mu)), pencil.k)
        omegas = np.sort(omegas[(mu > 0) & np.isfinite(omegas)])
    omegas = omegas[(omegas >= lo) & (omegas <= hi)]
    return omegas[np.diff(omegas, prepend=-np.inf) > resonance.MERGE_REL_TOL * omegas]


def _lightest_first(net):
    """net with node 1 swapped for its lightest node, the one with the
    smallest |c_ii| + |y_ii| + |g_ii| in the balanced pencil."""
    pencil = resonance._balance(*laplacian_parts(net))
    weight = sum(np.abs(np.diag(part)) for part in (pencil.c, pencil.y, pencil.g))
    swap = {1: int(np.argmin(weight)) + 1}
    swap[swap[1]] = 1
    return Network(net.node_count, tuple(
        Branch(swap.get(br.node_a, br.node_a), swap.get(br.node_b, br.node_b), br.element)
        for br in net.branches
    ))


def _oracle_cases():
    for boundary in (Boundary.FREE, Boundary.TOROIDAL):
        for m in (6, 8, 10, 12):
            want = grid_resonances_analytic(m, m, 1.0, 1.0, boundary).omegas
            yield grid_network(m, m, 1.0, 1.0, boundary), 0.8 * want[0], 1.2 * want[-1]
    rng = np.random.default_rng(17)
    for _ in range(40):
        yield random_connected_network(rng, 3, 20, "LC", 2.0), 1e-3, 1e3
    # the search grounds the heaviest node; node 1 as the lightest one
    # checks that the roots do not hang on the labels
    rng = np.random.default_rng(19)
    for _ in range(20):
        yield _lightest_first(random_connected_network(rng, 3, 20, "LC", 2.0)), 1e-3, 1e3


def test_pencil_matches_symmetric_definite_oracle():
    for net, lo, hi in _oracle_cases():
        rep = find_resonances(net, lo, hi)
        want = _oracle_omegas(net, lo, hi)
        assert rep.distinct_count == want.size
        assert rep.certified_count == rep.distinct_count
        assert np.all(np.abs(np.array(rep.omegas) - want) <= 1e-10 * want)


def _dense_groups(part):
    """Components, lone nodes counted, of the graph of the nonzero entries
    of part above its diagonal, by union-find."""
    label = list(range(len(part)))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    for a, b in zip(*np.nonzero(np.triu(part, 1))):
        label[root(a)] = root(b)
    return len({root(i) for i in range(len(part))})


def test_lc_groups_match_dense_components():
    # The structural root counts read at the branch ends equal the
    # components of the nonzero entries of the balanced g and c.
    nets = [net for net, _, _ in _oracle_cases()]
    nets.append(parse_netlist(
        "NET 3\nL 1 2 1e-300\nC 1 3 2.5e-308\nL 3 2 4e+307\nC 2 1 4e+307\n"))
    rng = random.Random("x")
    nets += [parse_netlist(_random_netlist(rng)) for _ in range(3000)]
    checked = 0
    for net in nets:
        try:
            c, y, g = laplacian_parts(net)
        except ValidationError:
            continue
        if not (c.any() or g.any()):  # _balance needs C or Gamma
            continue
        pencil = resonance._balance(c, y, g)
        want = [_dense_groups(pencil.g), _dense_groups(pencil.c)]
        assert resonance._lc_groups(net, pencil) == want, net
        checked += 1
    assert checked > 2000


# ── exact root counts ────────────────────────────────────────────────────

_EPS = Fraction(float(np.finfo(float).eps))


def _exact_grounded_parts(net):
    """Gamma and C of net with node n grounded, as exact {(i, j): Fraction}
    stamps of the element values over 0-based nodes 0..n-2."""
    parts = {ElementKind.INDUCTOR: {}, ElementKind.CAPACITOR: {}}
    n = net.node_count
    for br in net.branches:
        value = Fraction(br.element.value)
        if br.element.kind is ElementKind.INDUCTOR:
            value = 1 / value
        part = parts[br.element.kind]
        a, b = br.node_a - 1, br.node_b - 1
        for i, j, v in ((a, a, value), (b, b, value), (a, b, -value), (b, a, -value)):
            if i < n - 1 and j < n - 1:
                part[i, j] = part.get((i, j), 0) + v
    return parts[ElementKind.INDUCTOR], parts[ElementKind.CAPACITOR]


def _inertia(gamma, cap, tau):
    """(negative, zero) eigenvalue counts of Gamma - tau^2 C, exact.

    Symmetric LDL^T on sparse rows, each pivot the nonzero diagonal of the
    shortest remaining row; by Sylvester's law of inertia the signs of the
    pivots are those of the eigenvalues, so the negative count is the
    number of roots below tau, zero roots of the pencil included.
    """
    rows = {}
    for (i, j), v in gamma.items():
        rows.setdefault(i, {})[j] = v
    for (i, j), v in cap.items():
        row = rows.setdefault(i, {})
        row[j] = row.get(j, 0) - tau * tau * v
    rows = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    negative = 0
    while rows:
        k = min((i for i, row in rows.items() if row.get(i)),
                key=lambda i: len(rows[i]), default=None)
        if k is None:
            assert not any(rows.values()), "needs a 2x2 pivot"
            return negative, len(rows)
        pivot_row = rows.pop(k)
        d = pivot_row.pop(k)
        negative += d < 0
        for i, a in pivot_row.items():
            row = rows[i]
            del row[k]
            for j, b in pivot_row.items():
                v = row.get(j, 0) - a * b / d
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return negative, 0


def test_lc_roots_match_exact_inertia_counts():
    # Each reported omega has exact roots within 32 eps of it, and their
    # multiplicities add up to every root in the band: no root is missed,
    # and none is reported near omega -> 0, where a root of omega^2 = 0
    # that rounding had moved would lie.
    lo, hi = Fraction(1e-12), Fraction(1e12)
    for seed, decades in ((5, 2.0), (6, 4.0)):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            net = random_connected_network(rng, 3, 20, "LC", decades)
            gamma, cap = _exact_grounded_parts(net)

            def count(a, b):  # exact roots in [a, b], with multiplicity
                return sum(_inertia(gamma, cap, b)) - _inertia(gamma, cap, a)[0]

            rep = find_resonances(net, float(lo), float(hi))
            found = [
                count(Fraction(w) * (1 - 32 * _EPS), Fraction(w) * (1 + 32 * _EPS))
                for w in rep.omegas
            ]
            assert all(found), (seed, rep.omegas, found)
            assert sum(found) == count(lo, hi)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_grid_roots_within_32_eps_of_closed_form(boundary):
    for m in range(3, 17):
        want = np.array(grid_resonances_analytic(m, m, 1.0, 1.0, boundary).omegas)
        net = grid_network(m, m, 1.0, 1.0, boundary)
        got = np.array(find_resonances(net, 0.8 * want[0], 1.2 * want[-1]).omegas)
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= 32 * float(_EPS) * want), m


# ── eigenvector certificate ──────────────────────────────────────────────

def test_certificate_refuses_detuned_roots():
    # Each root of the 8x8 free grid is certified at its own omega by its
    # own eigenvector, and refused by the same vector at omega (1 +- 1e-6).
    net = grid_network(8, 8, 1.0, 1.0)
    pencil = resonance._balance(*laplacian_parts(net))
    omegas, z = resonance._pencil_roots(pencil, 0.1, 10.0, net)
    assert omegas.size >= 43
    assert resonance._certify(pencil, omegas, z)[1].all()
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        residuals, certified = resonance._certify(pencil, omegas * factor, z)
        assert not certified.any()
        assert (residuals > 0.0).all()


def test_certificate_centres_the_vectors_it_is_given():
    # z + 1e6 * 1 has the same L z as z but a norm 8e6 times larger; only
    # its projection off the constant vector may enter the bound, and that
    # does not certify roots detuned by 1e-9.
    net = grid_network(8, 8, 1.0, 1.0)
    pencil = resonance._balance(*laplacian_parts(net))
    omegas, z = resonance._pencil_roots(pencil, 0.1, 10.0, net)
    assert omegas.size >= 43
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        assert not resonance._certify(pencil, omegas * factor, z + 1e6)[1].any()


def test_lc_roots_keep_real_vectors():
    # The grounded 16x16 pencil has a spurious complex pair near nu = 0,
    # which makes scipy return every eigenvector complex.
    net = grid_network(16, 16, 1.0, 1.0)
    pencil = resonance._balance(*laplacian_parts(net))
    omegas, z = resonance._pencil_roots(pencil, 0.1, 10.0, net)
    assert omegas.size >= 211
    assert z.dtype == np.float64


@pytest.mark.parametrize("net,lo,hi", [
    (grid_network(8, 8, 1.0, 1.0), 0.15, 2.5),
    (ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.inductor(1.0),
    ]), 0.1, 10.0),
], ids=["grid8x8", "ring-LLC"])
def test_fallback_confirms_the_same_roots(monkeypatch, net, lo, hi):
    certified = find_resonances(net, lo, hi)
    assert certified.certified_count == certified.distinct_count > 0

    def refuse(pencil, omegas, z):
        return np.zeros(omegas.size), np.zeros(omegas.size, dtype=bool)

    monkeypatch.setattr(resonance, "_certify", refuse)
    fallback = find_resonances(net, lo, hi)
    assert fallback.omegas == certified.omegas
    assert fallback.certified_count == 0
    assert fallback.residuals == tuple(
        two_point_impedance(net, w, 1, 2).min_nontrivial_abs_lambda
        for w in fallback.omegas
    )


def test_uncertified_finite_root_is_dropped(monkeypatch):
    def refuse(pencil, omegas, z):
        return np.zeros(omegas.size), np.zeros(omegas.size, dtype=bool)

    def finite(net, omega, p, q):
        return SimpleNamespace(status=ImpedanceStatus.FINITE)

    monkeypatch.setattr(resonance, "_certify", refuse)
    monkeypatch.setattr(resonance, "two_point_impedance", finite)
    rep = find_resonances(lc_parallel(1.0, 1.0), 0.5, 2.0)
    assert rep.omegas == () and rep.distinct_count == 0
    assert rep.raw_count == 1
    assert rep.certified_count == 0


@pytest.mark.parametrize("m", [8, 12])
def test_grid_search_makes_no_impedance_query(monkeypatch, m):
    # Deterministic guard on the cost of a search: every root of the grid is
    # certified by its eigenvector, so the O(n^3)-per-root fallback never runs.
    calls = []

    def counting(*args):
        calls.append(args)
        return two_point_impedance(*args)

    monkeypatch.setattr(resonance, "two_point_impedance", counting)
    want = grid_resonances_analytic(m, m, 1.0, 1.0).omegas
    rep = find_resonances(grid_network(m, m, 1.0, 1.0), 0.8 * want[0], 1.2 * want[-1])
    assert calls == []
    assert rep.certified_count == rep.distinct_count == len(want)


def test_sweep_validation():
    net = lc_parallel(1.0, 1.0)
    with pytest.raises(ValidationError):
        find_resonances(net, 2.0, 1.0)
    with pytest.raises(ValidationError):
        find_resonances(net, 0.0, 1.0)


# ── the float range ──────────────────────────────────────────────────────

def test_failed_pencil_eigensolve_is_convergence_error(monkeypatch):
    # Balancing underflows the two branches at node 3 (2.5e-308 F and
    # 1/4e307 per H), so a0 + a2 is not positive definite and eigh fails.
    net = parse_netlist(
        "NET 3\nL 1 2 1e-300\nC 1 3 2.5e-308\nL 3 2 4e+307\nC 2 1 4e+307\n")
    with pytest.raises(ConvergenceError, match="pencil eigensolve failed"):
        find_resonances(net, 0.1, 10.0)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eig algorithm did not converge")

    monkeypatch.setattr(scipy.linalg, "eig", fail)
    net = Network(2, (Branch(1, 2, Element.inductor(1.0)),
                      Branch(1, 2, Element.capacitor(1.0)),
                      Branch(1, 2, Element.resistor(1.0))))
    with pytest.raises(ConvergenceError, match="did not converge"):
        find_resonances(net, 0.5, 2.0)
    # the same mapper serves the impedance query's eigh (an LC network)
    # and its SVD (an RLC network)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    for case in (lc_parallel(1.0, 1.0), net):
        with pytest.raises(ConvergenceError, match="factorization failed: eig algorithm"):
            two_point_impedance(case, 2.0, 1, 2)


# Valid netlists with R or Z branches from tests/test_cli_robustness.py's
# generator (random.Random("x"), 3,000 draws) whose balanced Y part flushes
# to zero: when that Y chose the route, they took the LC eigh, which failed.
_FLUSHED_RZ = (
    "NET 4\nL 1 2 1e-300\nC 2 3 1.7e+308\nZ 3 4 -1e+300 3.0\nC 1 4 5e-324\n",
    "NET 5\nC 1 2 5e-324\nC 2 3 2.5e-308\nL 2 4 1.0\nC 4 5 1e+300\nZ 3 4 -1e+300 4e+307\n",
    "NET 4\nC 1 2 0.5\nC 2 3 5e-324\nZ 2 4 1e-300 -1.7e+308\nL 3 4 1e-300\nR 3 2 4e+307\n",
    "NET 5\nL 1 2 4e+307\nL 1 3 3.0\nZ 3 4 -3.0 -1e+300\nC 2 5 1.7e+308\nL 3 4 1e-10\n",
    "NET 5\nL 1 2 2.5e-308\nL 2 3 1e-300\nZ 1 4 1e+300 -1e+300\nL 3 5 10000000000.0\nC 1 3 1.7e+308\n",
    "NET 3\nZ 1 2 -1e+300 -1e-10\nC 1 3 1.7e+308\nL 1 3 3.0\nC 2 3 2.5e-308\nZ 2 3 -2.5e-308 1e+300\n",
    "NET 4\nZ 1 2 1.7e+308 -10000000000.0\nL 2 3 10000000000.0\nZ 3 4 1.0 -1e+300\nC 3 4 3.0\nC 2 1 1e-300\nC 3 4 4e+307\n",
    "NET 5\nL 1 2 1.0\nC 1 3 3.0\nC 2 4 1.7e+308\nZ 1 5 -1e+300 -1e+300\n",
    "NET 4\nC 1 2 1.7e+308\nZ 2 3 -4e+307 -1e-300\nL 2 4 1e-300\n",
    "NET 5\nR 1 2 1e+300\nC 2 3 1e-10\nL 2 4 0.5\nZ 3 5 -2.5e-308 -1e+300\nC 1 2 1.7e+308\n",
    "NET 4\nC 1 2 3.0\nL 1 3 1e-300\nR 1 4 4e+307\nL 1 2 1e+300\n",
    "NET 4\nC 1 2 4e+307\nZ 1 3 1.7e+308 -5e-324\nL 1 4 1e+300\nZ 4 2 -1.7e+308 1.0\nR 1 4 4e+307\nC 1 4 1.0\nL 2 1 1e-10\n",
    "NET 4\nL 1 2 3.0\nR 2 3 4e+307\nC 1 4 0.5\nL 1 4 2.5e-308\n",
    "NET 5\nL 1 2 0.5\nC 1 3 1e+300\nZ 1 4 1.0 4e+307\nR 3 5 1e+300\n",
    "NET 4\nR 1 2 4e+307\nC 1 3 1e-10\nC 1 4 5e-324\nL 2 1 1e-300\nC 1 3 10000000000.0\nR 2 4 1e+300\n",
    "NET 4\nL 1 2 0.5\nC 1 3 3.0\nZ 3 4 0.5 -1.7e+308\nC 2 1 1.7e+308\nL 1 2 1.0\n",
    "NET 5\nC 1 2 0.5\nZ 2 3 4e+307 5e-324\nZ 3 4 -1.7e+308 -4e+307\nL 2 5 1e-300\nL 1 2 2.5e-308\n",
    "NET 5\nL 1 2 1e-300\nL 2 3 1e+300\nZ 2 4 0.5 -1e+300\nC 2 5 1.7e+308\n",
    "NET 4\nC 1 2 1.7e+308\nL 2 3 1e-10\nC 1 4 5e-324\nZ 3 2 1e-300 1.7e+308\n",
    "NET 4\nC 1 2 4e+307\nL 2 3 4e+307\nZ 2 4 -10000000000.0 1e+300\nL 3 1 2.5e-308\n",
    "NET 5\nL 1 2 1.0\nL 1 3 10000000000.0\nC 2 4 1.7e+308\nZ 3 5 -4e+307 -1.7e+308\nL 2 3 1e-300\nC 3 2 0.5\nZ 3 5 -1.7e+308 1.0\n",
    "NET 4\nL 1 2 1e+300\nZ 2 3 -1e+300 -1e-10\nZ 1 4 1e+300 -2.5e-308\nC 1 3 4e+307\nL 1 2 1e-300\nC 2 3 4e+307\nC 3 2 1e-10\n",
    "NET 5\nL 1 2 2.5e-308\nR 1 3 1.7e+308\nL 3 4 2.5e-308\nL 1 5 2.5e-308\nC 1 2 1e-10\n",
    "NET 5\nC 1 2 1.7e+308\nZ 2 3 5e-324 1.7e+308\nC 1 4 5e-324\nL 3 5 2.5e-308\nL 3 5 0.5\nL 2 5 1e+300\n",
    "NET 3\nR 1 2 1e+300\nC 2 3 0.5\nC 1 2 2.5e-308\nC 2 3 1e+300\nZ 1 2 -1e+300 1e-300\n",
    "NET 4\nC 1 2 1.0\nR 1 3 4e+307\nL 2 4 1e-300\n",
    "NET 5\nL 1 2 1e+300\nL 2 3 0.5\nR 2 4 1.7e+308\nC 1 5 1e+300\nL 2 5 1e+300\nL 3 2 0.5\n",
    "NET 4\nL 1 2 1.7e+308\nC 2 3 2.5e-308\nZ 3 4 -1.7e+308 2.5e-308\nC 2 1 4e+307\nC 4 3 5e-324\nL 2 1 10000000000.0\n",
    "NET 5\nZ 1 2 1.0 1.7e+308\nL 2 3 2.5e-308\nR 2 4 1.7e+308\nC 1 5 10000000000.0\nL 1 3 10000000000.0\n",
    "NET 4\nC 1 2 4e+307\nL 1 3 3.0\nZ 1 4 -4e+307 -10000000000.0\nZ 4 2 -4e+307 -1e+300\n",
    "NET 5\nL 1 2 0.5\nZ 2 3 1.7e+308 -1e+300\nC 2 4 5e-324\nR 4 5 1.7e+308\nC 1 5 4e+307\nZ 5 2 1.7e+308 10000000000.0\nR 2 5 4e+307\n",
)


def test_r_or_z_networks_take_the_companion_route():
    # The element kinds choose the route: each search returns a report, and
    # every omega it reports is RESONANT by the impedance query.
    assert len(_FLUSHED_RZ) == 31
    for netlist in _FLUSHED_RZ:
        net = parse_netlist(netlist)
        for w in find_resonances(net, 1e-300, 1e300).omegas:
            status = two_point_impedance(net, w, 1, 2).status
            assert status is ImpedanceStatus.RESONANT, (netlist, w)


def test_underflowing_branch_energy_warns_nothing():
    # The capacitive energy of a column underflows: its root is not finite
    # and is dropped by the range test, without a warning.
    net = parse_netlist(
        "NET 4\nC 1 2 2.5e-308\nL 2 3 1e10\nL 3 4 0.5\nL 3 1 3\nC 2 3 1\n")
    rep = find_resonances(net, 0.1, 10.0)
    assert rep.omegas == () and rep.raw_count == 0


def test_residual_past_float_range_is_input_error():
    # The root near 4.6e-47 rad/s passes the certificate in the pencil's
    # units, but its residual in siemens, like the 1e-300 H inductor's
    # admittance there, is beyond the float range.  It is not certified, and
    # the fallback impedance query reports its own input error.
    net = parse_netlist(
        "NET 4\nZ 1 2 1.7e308 3\nC 2 3 1e10\nZ 3 4 1e10 0.5\nC 4 2 1\n"
        "R 3 2 4e307\nL 1 3 1e-300\n")
    message = "admittance of inductor 1e-300 at omega 4.569564421762447e-47 is not finite"
    with pytest.raises(ValidationError, match=message):
        find_resonances(net, 1e-300, 1e300)
    with pytest.raises(ValidationError, match=message):
        two_point_impedance(net, 4.569564421762447e-47, 1, 2)


# ── ring reactance sum rule ──────────────────────────────────────────────

def test_ring_sum_rule_detects_resonance():
    elements = [Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0)]
    omega_star = 1.0 / math.sqrt(2.0)
    at = ring_reactance_resonance_check(elements, omega_star)
    assert at.is_resonant
    assert abs(at.reactance_sum) <= 1e-9
    off = ring_reactance_resonance_check(elements, 1.1 * omega_star)
    assert not off.is_resonant


def test_ring_sum_rule_rejects_non_reactance():
    cases = [
        ([Element.resistor(1.0)] * 3, "inductors and capacitors only"),
        ([Element.inductor(1.0), "C", Element.capacitor(1.0)], "'C' is not an Element"),
    ]
    for elements, match in cases:
        for check in (ring_reactance_resonance_check, eigenvalue_product_identity_check):
            with pytest.raises(ValidationError, match=match):
                check(elements, 1.0)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_ring_checks_need_three_elements(size):
    elements = [Element.inductor(1.0), Element.capacitor(1.0)][:size]
    with pytest.raises(ValidationError, match="ring needs at least 3 nodes"):
        ring_network(size, elements)
    with pytest.raises(ValidationError, match="ring needs at least 3 nodes"):
        ring_reactance_resonance_check(elements, 1.0)
    with pytest.raises(ValidationError, match="ring needs at least 3 nodes"):
        eigenvalue_product_identity_check(elements, 1.0)


def test_sum_rule_agrees_with_sweep():
    elements = [Element.inductor(2.0), Element.inductor(0.5), Element.capacitor(1.5)]
    # reactance sum omega*(L1+L2) - 1/(omega*C) vanishes at:
    omega_star = 1.0 / math.sqrt(2.5 * 1.5)
    assert ring_reactance_resonance_check(elements, omega_star).is_resonant
    net = ring_network(3, elements)
    rep = find_resonances(net, omega_star / 3.0, omega_star * 3.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] - omega_star) <= 1e-7 * omega_star


# ── eigenvalue product identity ──────────────────────────────────────────

def test_product_identity_uniform_reactances():
    # ring of three unit reactances at omega = 1: both sides equal -9j^0...
    # the closed form is N(-j)^(N-1) (sum x)/(prod x) = 3*(-1)*(3/1) = -9.
    elements = [Element.inductor(1.0)] * 3
    dev = eigenvalue_product_identity_check(elements, 1.0)
    assert dev <= 1e-12


def test_product_identity_mixed_reactances():
    # x = (1, 2, 3) at omega = 1: closed form 3*(-1)*(6/6) = -3.
    elements = [Element.inductor(1.0), Element.inductor(2.0), Element.inductor(3.0)]
    dev = eigenvalue_product_identity_check(elements, 1.0)
    assert dev <= 1e-12


def test_product_identity_takes_an_iterator():
    elements = [Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0)]
    dev = eigenvalue_product_identity_check(elements, 1.0)
    assert dev <= 1e-12
    assert eigenvalue_product_identity_check(iter(elements), 1.0) == dev


def test_product_identity_with_capacitors():
    elements = [
        Element.inductor(1.0), Element.capacitor(0.5),
        Element.inductor(2.0), Element.capacitor(1.0),
    ]
    dev = eigenvalue_product_identity_check(elements, 1.3)
    assert dev <= 1e-10


def test_product_identity_near_resonance_refused():
    elements = [Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0)]
    with pytest.raises(NearSingularError):
        eigenvalue_product_identity_check(elements, 1.0 / math.sqrt(2.0))
