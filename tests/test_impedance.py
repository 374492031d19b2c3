"""Two-point impedance from the factorization route."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from impnet import (
    Boundary,
    Branch,
    Element,
    ElementKind,
    ImpedanceStatus,
    InvalidNodeError,
    Network,
    SingularSystem,
    ValidationError,
    admittance_scale,
    assemble_laplacian,
    branch_admittances,
    classify_zero_modes,
    find_resonances,
    grid_network,
    grid_resonances_analytic,
    impedance_matrix,
    ring_network,
    solve_direct,
    takagi_decompose,
    two_point_impedance,
)
from impnet import impedance, laplacian, takagi
from conftest import (
    SQRT3,
    lc_parallel,
    random_connected_network,
    resistor_effective_resistance,
)

# ── known values ─────────────────────────────────────────────────────────

def test_triangle_impedances(triangle):
    want = {(1, 2): 3 + 1j * SQRT3, (2, 3): 3 - 1j * SQRT3, (3, 1): 0j}
    for (p, q), z in want.items():
        r = two_point_impedance(triangle, 1.0, p, q)
        assert r.status is ImpedanceStatus.FINITE
        assert abs(r.value - z) <= 1e-9


def test_single_resistor():
    net = Network(2, (Branch(1, 2, Element.resistor(5.0)),))
    r = two_point_impedance(net, 3.0, 1, 2)
    assert r.value == pytest.approx(5.0 + 0j, abs=1e-12)


def test_series_resistors():
    net = Network(3, (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(2, 3, Element.resistor(2.0)),
    ))
    r = two_point_impedance(net, 1.0, 1, 3)
    assert r.value == pytest.approx(3.0 + 0j, abs=1e-12)


def test_parallel_impedances_combine():
    net = Network(2, (
        Branch(1, 2, Element.resistor(2.0)),
        Branch(1, 2, Element.resistor(2.0)),
    ))
    r = two_point_impedance(net, 1.0, 1, 2)
    assert r.value == pytest.approx(1.0 + 0j, abs=1e-12)


def test_reactive_elements_at_frequency():
    # series L then C between the ends: Z = j(wL - 1/(wC))
    net = Network(3, (
        Branch(1, 2, Element.inductor(2.0)),
        Branch(2, 3, Element.capacitor(0.5)),
    ))
    omega = 3.0
    want = 1j * (omega * 2.0 - 1.0 / (omega * 0.5))
    r = two_point_impedance(net, omega, 1, 3)
    assert abs(r.value - want) <= 1e-12 * abs(want)


def test_pair_order_symmetry(triangle):
    a = two_point_impedance(triangle, 1.0, 1, 2).value
    b = two_point_impedance(triangle, 1.0, 2, 1).value
    assert a == b


# ── agreement with the resistor-network oracle ───────────────────────────

def test_matches_resistor_oracle():
    rng = np.random.default_rng(77)
    for _ in range(15):
        net = random_connected_network(rng, 4, 10, kinds="R")
        n = net.node_count
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        if p == q:
            q = p % n + 1
        want = resistor_effective_resistance(net, p, q)
        r = two_point_impedance(net, 1.0, p, q)
        assert r.value.real == pytest.approx(want, rel=1e-10)
        assert abs(r.value.imag) <= 1e-12 * max(want, 1.0)


def test_resistor_triangle_inequality():
    # Effective resistance is a metric: R_pq <= R_pr + R_rq.
    rng = np.random.default_rng(401)
    for _ in range(8):
        net = random_connected_network(rng, 4, 8, kinds="R")
        n = net.node_count
        table = impedance_matrix(net, 1.0)
        r = table.value.real
        for p in range(n):
            for q in range(n):
                for k in range(n):
                    assert r[p][q] <= r[p][k] + r[k][q] + 1e-12


def test_gauge_invariance_of_mode_sum():
    # Re-gauging every mode u -> u e^{i phi} carries lam -> lam e^{2 i phi},
    # so the summand (u_p - u_q)^2 / lam is unchanged mode by mode.  The
    # paper's sum over the modes of takagi_decompose is then compared with
    # the query, which reads another factorization: eigh of M, or the SVD,
    # whose vectors mix the degenerate pairs of a uniform-Z ring.
    rng = np.random.default_rng(402)
    cases = [
        (random_connected_network(rng, 4, 9), float(10.0 ** rng.uniform(-1, 1)))
        for _ in range(10)
    ]
    cases += [(ring_network(n, [Element.impedance(0.3 + 2j)] * n), 0.9)
              for n in (5, 8, 12, 30)]
    cases += [
        (random_connected_network(rng, n, n), float(10.0 ** rng.uniform(-1, 1)))
        for n in (60, 120)
    ]
    for net, omega in cases:
        n = net.node_count
        dec = takagi_decompose(assemble_laplacian(net, omega))
        cls = classify_zero_modes(dec, admittance_scale(net, omega))
        keep = np.ones(n, dtype=bool)
        keep[list(cls.zero_indices)] = False
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
        u2 = dec.u * phases
        lam2 = dec.lam * phases**2
        for p, q in ((0, n - 1), (0, n // 2)):
            diffs = dec.u[p, :] - dec.u[q, :]
            diffs2 = u2[p, :] - u2[q, :]
            z = complex(np.sum(diffs[keep] ** 2 / dec.lam[keep]))
            z2 = complex(np.sum(diffs2[keep] ** 2 / lam2[keep]))
            assert abs(z - z2) <= 1e-12 * max(abs(z), 1.0), (n, p, q)
            want = two_point_impedance(net, omega, p + 1, q + 1)
            if want.status is ImpedanceStatus.FINITE:
                bound = 1e-10 * max(abs(want.value), 1.0)
                assert abs(z2 - want.value) <= bound, (n, p, q)


def _scaled(net, k):
    """The network with every impedance multiplied by k."""
    branches = []
    for br in net.branches:
        e = br.element
        v = e.value / k if e.kind is ElementKind.CAPACITOR else e.value * k
        branches.append(Branch(br.node_a, br.node_b, Element(e.kind, v)))
    return Network(net.node_count, tuple(branches))


def test_verdicts_independent_of_units():
    # Scaling every impedance by k scales Z by k and changes nothing else,
    # even where sigma = |lambda|^2 would overflow or underflow.
    rng = np.random.default_rng(403)
    for trial in range(40):
        net = random_connected_network(rng, 4, 12)
        omega = float(10.0 ** rng.uniform(-1, 1))
        n = net.node_count
        ref = two_point_impedance(net, omega, 1, n)
        for k in (1e170, 1e-170, 1e200, 1e-200, 1e250, 1e-250):
            r = two_point_impedance(_scaled(net, k), omega, 1, n)
            assert r.status is ref.status, f"trial {trial}, k={k}"
            assert r.near_resonance == ref.near_resonance, f"trial {trial}, k={k}"
            assert abs(r.value / k - ref.value) <= 1e-9 * abs(ref.value), (
                f"trial {trial}, k={k}"
            )


def _ldexp(z, k):
    """z (complex scalar or array) times 2^k, part by part."""
    z = np.asarray(z, dtype=complex)
    return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)


def _scaled_pow2(net, k):
    """net with every R, L and Z times 2^k and every C times 2^-k."""
    def value(e):
        if e.kind is ElementKind.CAPACITOR:
            return math.ldexp(e.value, -k)
        if e.kind is ElementKind.IMPEDANCE:
            return complex(_ldexp(e.value, k))
        return math.ldexp(e.value, k)

    return Network(net.node_count, tuple(
        Branch(br.node_a, br.node_b, Element(br.element.kind, value(br.element)))
        for br in net.branches
    ))


@pytest.mark.parametrize("kinds", ["R", "LC", "RZ", "RLCZ"])
def test_answers_scale_exactly_with_power_of_two_units(kinds):
    # Every admittance times 2^-k: node_system hands both routes the same
    # Laplacian bits in its unit, so every impedance is exactly 2^k times
    # the reference and every verdict is the same.
    rng = np.random.default_rng(2203)
    omega = 0.9
    for trial in range(6):
        net = random_connected_network(rng, 8, 40, kinds, decades=2.0)
        n = net.node_count
        ref_table = impedance_matrix(net, omega)
        ref_pair = two_point_impedance(net, omega, 1, n)
        ref_direct = solve_direct(net, omega, 1, n)
        for k in (300, -300, 600, -600, 900, -900):
            twin = _scaled_pow2(net, k)
            table = impedance_matrix(twin, omega)
            pair = two_point_impedance(twin, omega, 1, n)
            direct = solve_direct(twin, omega, 1, n)
            where = (kinds, trial, k)
            for got, ref in ((table, ref_table), (pair, ref_pair)):
                assert got.status is ref.status, where
                assert got.resonant_mode_count == ref.resonant_mode_count, where
                assert got.near_resonance == ref.near_resonance, where
                assert got.min_nontrivial_abs_lambda == math.ldexp(
                    ref.min_nontrivial_abs_lambda, -k), where
                assert np.array_equal(got.value, _ldexp(ref.value, k)), where
                assert np.array_equal(got.divergent_coefficient,
                                      ref.divergent_coefficient), where
            if isinstance(ref_direct, SingularSystem):
                assert isinstance(direct, SingularSystem), where
            else:
                assert direct == complex(_ldexp(ref_direct, k)), where


# ── impedance matrix ─────────────────────────────────────────────────────

def test_matrix_agrees_with_single_queries(triangle):
    table = impedance_matrix(triangle, 1.0)
    assert table.value.shape == (3, 3)
    assert np.array_equal(table.value, table.value.T)
    assert np.all(np.diag(table.value) == 0j)
    for p in range(1, 4):
        for q in range(1, 4):
            if p == q:
                continue
            single = two_point_impedance(triangle, 1.0, p, q)
            assert abs(table.value[p - 1, q - 1] - single.value) <= 1e-12


def _mode_terms(net, omega, conditioned=False):
    """(p, q) -> sum_a |u_ap - u_aq|^2 / |lambda_a| over the retained modes
    of the full factorization: the scale of the rounding in a mode sum.
    conditioned weights term a by max|lambda| / |lambda_a|, its first-order
    sensitivity to a backward error of max|lambda|: the scale on which two
    different eigensolves of L agree, which near a resonance is far above
    the rounding of one mode sum."""
    dec = takagi_decompose(assemble_laplacian(net, omega))
    cls = classify_zero_modes(dec, admittance_scale(net, omega))
    mags = np.abs(dec.lam)
    top = float(mags.max())
    mags[list(cls.zero_indices)] = np.inf
    denom = mags * mags / top if conditioned else mags
    return lambda p, q: float(
        np.sum(np.abs(dec.u[p - 1] - dec.u[q - 1]) ** 2 / denom)
    )


def _assert_table_matches_queries(net, omega, pairs):
    # The table reads all n rows and a single query two rows of the same
    # eigensolve, each through its own application of Q^T.  A value is
    # compared against sum_a |u_ap - u_aq|^2 / |lambda_a|, which is |Z|
    # unless the mode sum cancels: between opposite corners of the 8x8 grid
    # at (1 +- 1e-6) times its 7-fold resonance, |Z| = 7e-6 and the sum is
    # 3.8.  A pair
    # that does not couple to the resonant modes has a
    # divergent_coefficient of rounding noise, ~1e-30.
    table = impedance_matrix(net, omega)
    terms = _mode_terms(net, omega)
    statuses = set()
    for p, q in pairs:
        s = two_point_impedance(net, omega, p, q)
        assert s.status is table.status, (omega, p, q)
        assert s.resonant_mode_count == table.resonant_mode_count, (omega, p, q)
        if table.status is ImpedanceStatus.FINITE:
            t = table.value[p - 1, q - 1]
            assert abs(s.value - t) <= 1e-12 * terms(p, q), (omega, p, q)
        else:
            assert s.divergent_coefficient == pytest.approx(
                table.divergent_coefficient[p - 1, q - 1], rel=1e-9, abs=1e-20
            ), (omega, p, q)
        statuses.add(table.status)
    return statuses


def test_matrix_on_random_network():
    rng = np.random.default_rng(13)
    net = random_connected_network(rng, 4, 7)
    omega = 1.3
    table = impedance_matrix(net, omega)
    n = net.node_count
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            single = two_point_impedance(net, omega, p, q)
            assert abs(table.value[p - 1, q - 1] - single.value) <= 1e-12

    cases = [
        (random_connected_network(rng, n, n), float(10.0 ** rng.uniform(-1, 1)))
        for n in (6, 30, 120) for _ in range(2)
    ]
    cases += [
        (random_connected_network(rng, 30, 30, kinds="R", decades=3.0), 1.0)
        for _ in range(4)
    ]
    for net, omega in cases:
        n = net.node_count
        pairs = {(1, n)} | {
            tuple(sorted(int(a) for a in rng.choice(n, 2, replace=False) + 1))
            for _ in range(5)
        }
        _assert_table_matches_queries(net, omega, sorted(pairs))

    grid = grid_network(8, 8, 1.0, 1.0)
    statuses = set()
    for omega in grid_resonances_analytic(8, 8, 1.0, 1.0).omegas:
        for w in (omega, omega * (1.0 + 1e-6), omega * (1.0 - 1e-6)):
            statuses |= _assert_table_matches_queries(
                grid, w, [(1, 64), (1, 2), (10, 37)]
            )
    assert statuses == {ImpedanceStatus.FINITE, ImpedanceStatus.RESONANT}


def _count_factorization_calls(monkeypatch):
    """Record takagi_decompose calls, every takagi_rows result, the input
    of every numpy eigh and SVD, and every residual computed."""
    # no query path may reach the full factorization by its own binding
    assert not hasattr(impedance, "takagi_decompose")
    calls = {"decompose": [], "rows": [], "eigh": [], "svd": [], "residual": []}
    decompose, rows, residual = (
        takagi.takagi_decompose, takagi.takagi_rows, takagi._residual
    )
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def counting_decompose(*args):
        calls["decompose"].append(args)
        return decompose(*args)

    def recording_rows(*args):
        calls["rows"].append(rows(*args))
        return calls["rows"][-1]

    def recording(name, solve):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.array(a))
            return solve(a, *args, **kwargs)
        return wrapper

    def counting_residual(*args):
        calls["residual"].append(args)
        return residual(*args)

    monkeypatch.setattr(takagi, "takagi_decompose", counting_decompose)
    monkeypatch.setattr(takagi, "_residual", counting_residual)
    monkeypatch.setattr(impedance, "takagi_rows", recording_rows)
    monkeypatch.setattr(np.linalg, "eigh", recording("eigh", eigh))
    monkeypatch.setattr(np.linalg, "svd", recording("svd", svd))
    return calls


@pytest.mark.parametrize(
    "case", ["grid10x10", "grid10x10-resonant", "res30", "rlcz120"]
)
def test_pair_query_back_transforms_two_rows(monkeypatch, case):
    # Deterministic guard on the cost of a pair query: no full
    # decomposition, one factorization of order n of node_system's L as it
    # comes, and rows p and q read from it, also at a resonance.  An LC
    # grid (L = jB) and a resistor network (L real) take numpy's eigh of
    # the real n x n M; a network with both resistive and reactive parts
    # takes one complex SVD of L.  No matrix of order 2n is built, every
    # route has n columns, and no residual is computed until it is read.
    # A count, not a timing.
    if case == "rlcz120":
        net = random_connected_network(np.random.default_rng(120), 120, 120)
        omega = 1.3
    elif case == "res30":
        net = random_connected_network(
            np.random.default_rng(30), 30, 30, kinds="R", decades=3.0
        )
        omega = 1.0
    else:
        net = grid_network(10, 10, 1.0, 1.0)
        omega = 1.0 if case.endswith("resonant") else 0.7
    n = net.node_count
    lap, scale, e = laplacian.node_system(net, omega)
    calls = _count_factorization_calls(monkeypatch)
    r = two_point_impedance(net, omega, 1, n)
    assert calls["decompose"] == []
    assert calls["residual"] == []
    if case == "rlcz120":
        assert calls["eigh"] == []
        (a,) = calls["svd"]
        assert np.array_equal(a, lap)
    else:
        assert calls["svd"] == []
        (a,) = calls["eigh"]
        assert np.array_equal(a, lap.real if case == "res30" else lap.imag)
    (dec,) = calls["rows"]
    assert dec.rows.shape == dec.left_rows.shape == (2, n)
    assert dec.lam.size == dec.col_sums.size == n
    # the zero rule of the query: |lam| against the scale in its unit 2^e S;
    # the columns ascend in |lam|, so the zero ones lead and are read as a slice
    threshold = laplacian.SINGULAR_REL_TOL * math.ldexp(scale, -e)
    assert np.count_nonzero(np.abs(dec.lam) <= threshold) == r.resonant_mode_count + 1
    assert (np.diff(np.abs(dec.lam)) >= 0.0).all()
    if case.endswith("resonant"):
        assert r.status is ImpedanceStatus.RESONANT and r.resonant_mode_count > 2
    # read now, the residual is that of L r_a = lam_a conj(l_a) over all n
    # columns, in the unit of the L the query factored, 2^e S
    residual = dec.residual
    assert len(calls["residual"]) == 1
    full = takagi.takagi_rows(lap, range(n))
    assert np.array_equal(full.rows[[0, n - 1]], dec.rows)
    defect = lap @ full.rows - full.left_rows.conj() * full.lam
    assert residual == pytest.approx(np.linalg.norm(defect, axis=0).max(), rel=1e-12)
    assert residual <= 1e-14 * np.linalg.norm(lap, 2)


@pytest.mark.parametrize("omega", [0.7, 1.0])
def test_table_reads_rows_in_one_back_transform(monkeypatch, omega):
    # The all-pairs table takes the route of a pair query with all n rows:
    # no full decomposition, one eigh of the LC grid's n x n M and no SVD,
    # off and at the free 10x10 grid's resonance.
    net = grid_network(10, 10, 1.0, 1.0)
    n = net.node_count
    calls = _count_factorization_calls(monkeypatch)
    table = impedance_matrix(net, omega)
    assert calls["decompose"] == []
    assert [a.shape for a in calls["eigh"]] == [(n, n)]
    assert calls["svd"] == []
    assert calls["residual"] == []
    (dec,) = calls["rows"]
    assert dec.rows.shape == dec.left_rows.shape == (n, n)
    assert table.value.shape == (n, n)
    want = ImpedanceStatus.RESONANT if omega == 1.0 else ImpedanceStatus.FINITE
    assert table.status is want


@pytest.mark.parametrize("case", ["rlcz120", "grid15x15"])
def test_pair_query_memory_peak(case):
    # A count, not a timing: the tracemalloc peak of one pair query, after
    # a warm-up call, in doubles.  The arrays of order n^2 alive at the
    # peak are the complex n x n Laplacian (2 n^2) and the factors numpy
    # returns: for the RLCZ network the SVD's complex U and V^H (4 n^2),
    # 6 n^2 in all; for the free grid eigh's real eigenvectors (n^2) and
    # their copy sorted by |mu| (n^2), 4 n^2 in all.  LAPACK's workspace
    # and numpy's copy of the input are allocated outside the tracer's
    # view.  The bound of 6 n^2 leaves the grid room for less than one
    # further complex n x n array, such as the residual's temporaries if
    # every query computed them; that of 18 n^2 leaves the RLCZ network
    # room for less than an eigensolve of the 2n x 2n embedding H (H and
    # its eigenvectors, 16 n^2).
    if case == "rlcz120":
        net = random_connected_network(np.random.default_rng(120), 120, 120)
        omega = 1.3
    else:
        net = grid_network(15, 15, 1.0, 1.0)
        omega = 0.7
    n = net.node_count
    bound = (18 if case == "rlcz120" else 6) * n * n
    two_point_impedance(net, omega, 1, n)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        two_point_impedance(net, omega, 1, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 8 * bound, f"peak {peak / 8 / n**2:.2f} n^2 doubles"


@pytest.mark.parametrize("p, q", [(10, 11), (1, 2)])
def test_divergent_coefficient_is_projection_onto_zero_space(p, q):
    # At the free 8x8 grid's 7-fold resonance omega = 1 only the zero space
    # is defined, not a basis of it.  The coupling is ||N^H (e_p - e_q)||^2
    # for any orthonormal basis N of that space, here the right singular
    # vectors of L at or below the zero threshold.
    net = grid_network(8, 8, 1.0, 1.0)
    lap = assemble_laplacian(net, 1.0)
    _, s, vh = np.linalg.svd(lap)
    null = vh[s <= 1e-13 * admittance_scale(net, 1.0)].conj().T
    assert null.shape[1] == 8
    want = np.sum(np.abs(null[:, np.newaxis] - null[np.newaxis]) ** 2, axis=-1)
    single = two_point_impedance(net, 1.0, p, q)
    table = impedance_matrix(net, 1.0)
    for r in (single, table):
        assert r.status is ImpedanceStatus.RESONANT
        assert r.resonant_mode_count == 7
    assert abs(single.divergent_coefficient - want[p - 1, q - 1]) <= 1e-12
    assert table.divergent_coefficient.shape == want.shape
    assert np.abs(table.divergent_coefficient - want).max() <= 1e-12


def _rotated(net, omega, theta=0.3):
    """The network with every branch a Z element of impedance z_b e^{-i
    theta}, z_b its impedance at omega: its Laplacian is e^{i theta} L(omega)
    at any frequency, neither real nor purely imaginary."""
    rot = cmath.exp(-1j * theta)
    return Network(net.node_count, tuple(
        Branch(br.node_a, br.node_b, Element.impedance(rot / y))
        for br, y in zip(net.branches, branch_admittances(net, omega))
    ))


def _grid_omegas(m, boundary):
    """The grid's closed-form resonances, each also detuned by +-1e-6."""
    omegas = grid_resonances_analytic(m, m, 1.0, 1.0, boundary).omegas
    return [w * (1.0 + d) for w in omegas for d in (0.0, 1e-6, -1e-6)]


def test_rotated_network_takes_the_svd_with_the_same_answers():
    # An LC grid or a resistor network (L = jB or L real) takes the n x n
    # real eigh; the same network rotated to e^{0.3 i} L takes the complex
    # SVD.  The rotation scales every Z by e^{-0.3 i} and changes nothing
    # else, so the two routes must give the same verdicts and values with
    # no switch between them.  The values are compared on the scale of the
    # factorizations' backward error: just off a resonance a mode with
    # |lambda| ~ 1e-6 max|lambda| amplifies it, and the two routes differed
    # by up to 4.2e-9 of sum |u_p - u_q|^2 / |lambda| but only 4.7e-16 of
    # that sum weighted by max|lambda| / |lambda|.
    rng = np.random.default_rng(7)
    cases = [
        (grid_network(8, 8, 1.0, 1.0), _grid_omegas(8, Boundary.FREE)),
        (grid_network(6, 6, 1.0, 1.0, Boundary.TOROIDAL),
         _grid_omegas(6, Boundary.TOROIDAL)),
    ] + [
        (random_connected_network(rng, 30, 30, kinds="R", decades=3.0), [1.0])
        for _ in range(4)
    ]
    statuses = set()
    for net, omegas in cases:
        n = net.node_count
        pairs = [(1, n), (1, 2), (2, n // 2 + 1)]
        for omega in omegas:
            rot = _rotated(net, omega)
            assert takagi._real_form(assemble_laplacian(net, omega)) is not None
            assert takagi._real_form(assemble_laplacian(rot, omega)) is None
            terms = _mode_terms(net, omega, conditioned=True)
            for p, q in pairs:
                r = two_point_impedance(net, omega, p, q)
                s = two_point_impedance(rot, omega, p, q)
                where = (n, omega, p, q)
                assert s.status is r.status, where
                assert s.resonant_mode_count == r.resonant_mode_count, where
                assert s.near_resonance == r.near_resonance, where
                if r.status is ImpedanceStatus.FINITE:
                    z = cmath.exp(0.3j) * s.value
                    assert abs(z - r.value) <= 1e-12 * terms(p, q), where
                else:
                    assert s.divergent_coefficient == pytest.approx(
                        r.divergent_coefficient, rel=1e-9, abs=1e-20
                    ), where
                statuses.add(r.status)
    assert statuses == {ImpedanceStatus.FINITE, ImpedanceStatus.RESONANT}


def test_lossless_network_is_purely_reactive():
    # The impedance of an L/C-only network is imaginary: L = jB with B real,
    # so every mode is a real vector times e^{-+i pi/4} and every term
    # (u_p - u_q)^2 / lambda is imaginary.  A finite value's real part may
    # hold only rounding, measured against sum_a |u_ap - u_aq|^2 / |lambda_a|,
    # also just off the grids' resonances.
    queries = []
    for m in (6, 8):
        net = grid_network(m, m, 1.0, 1.0)
        n = net.node_count
        for w in grid_resonances_analytic(m, m, 1.0, 1.0).omegas:
            for d in (1e-9, -1e-9, 1e-6):
                queries += [(net, w * (1.0 + d), p, q)
                            for p, q in ((1, n), (1, 2), (2, m + 3))]
    rng = np.random.default_rng(2024)
    for _ in range(80):
        net = random_connected_network(rng, 3, 20, "LC", 2.0)
        queries += [(net, float(10.0 ** rng.uniform(-2.0, 2.0)), 1, net.node_count)
                    for _ in range(4)]
    finite = 0
    for net, omega, p, q in queries:
        r = two_point_impedance(net, omega, p, q)
        if r.status is ImpedanceStatus.FINITE:
            finite += 1
            bound = 1e-14 * _mode_terms(net, omega)(p, q)
            assert abs(r.value.real) <= bound, (net.node_count, omega, p, q)
    assert finite >= 0.9 * len(queries)


# ── resonance reporting ──────────────────────────────────────────────────

def test_lc_parallel_resonant():
    r = two_point_impedance(lc_parallel(1.0, 1.0), 1.0, 1, 2)
    assert r.status is ImpedanceStatus.RESONANT
    assert r.resonant_mode_count == 1
    # nontrivial zero mode is (e1 - e2)/sqrt(2): squared difference is 2
    assert r.divergent_coefficient == pytest.approx(2.0, rel=1e-9)


def test_lc_parallel_off_resonance():
    omega = 2.0
    r = two_point_impedance(lc_parallel(1.0, 1.0), omega, 1, 2)
    y = 1j * (omega - 1.0 / omega)
    assert r.status is ImpedanceStatus.FINITE
    assert abs(r.value - 1.0 / y) <= 1e-12


def test_resonant_ring_reports_divergence():
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    r = two_point_impedance(net, 1.0 / math.sqrt(2.0), 1, 2)
    assert r.status is ImpedanceStatus.RESONANT
    assert r.resonant_mode_count == 1
    assert r.divergent_coefficient > 0.0
    assert r.min_nontrivial_abs_lambda <= 1e-5


def test_resonant_result_reports_its_computed_margin():
    # At every root certified on the free 8x8 grid the pair query is
    # RESONANT and reports the smallest nontrivial |lambda| as computed,
    # between 0 and the zero threshold, not a 0 it was set to.
    net = grid_network(8, 8, 1.0, 1.0)
    ws = grid_resonances_analytic(8, 8, 1.0, 1.0).omegas
    report = find_resonances(net, 0.8 * ws[0], 1.2 * ws[-1])
    assert report.certified_count == report.distinct_count > 40
    for w in report.omegas:
        r = two_point_impedance(net, w, 1, 2)
        assert r.status is ImpedanceStatus.RESONANT, w
        threshold = laplacian.SINGULAR_REL_TOL * admittance_scale(net, w)
        assert 0.0 < r.min_nontrivial_abs_lambda <= threshold, w


def test_near_resonance_flag():
    # Detuning chosen so the smallest nontrivial sigma lands between the
    # zero threshold (1e-10 of sigma_max) and ten times it: finite verdict,
    # near-resonance warning raised.
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + 4e-5)
    r = two_point_impedance(net, omega, 1, 2)
    assert r.status is ImpedanceStatus.FINITE
    assert r.near_resonance
    far = two_point_impedance(net, 2.0, 1, 2)
    assert not far.near_resonance


@pytest.mark.parametrize("decades", [2.5, 3.0, 5.0])
def test_wide_spread_resistor_networks_never_resonant(decades):
    # A resistor-only network has no resonance however widely its values
    # spread: the zero rule is relative to the admittance scale, not to
    # max|lambda|.  At 1e+-5 the value is limited by eigensolver accuracy
    # (worst seen 1.7e-6), so only the verdict and a real value are
    # asserted there.
    rng = np.random.default_rng(11)
    for trial in range(50):
        net = random_connected_network(rng, 30, 30, kinds="R", decades=decades)
        r = two_point_impedance(net, 1.0, 1, 30)
        assert r.status is ImpedanceStatus.FINITE, f"trial {trial}"
        assert r.value.imag == 0.0, f"trial {trial}"
        if decades <= 3.0:
            d = solve_direct(net, 1.0, 1, 30)
            assert abs(r.value - d) <= 1e-8 * abs(d), f"trial {trial}"


def test_band_under_the_noise_floor_is_decided_by_the_zero_rule():
    # A 30-node resistor network spanning 1e+-7 ohm whose smallest
    # nontrivial |lambda| (6.5e-7 S) lies above the zero threshold
    # 1e-13 * scale (4.5e-7 S) but below the eigensolver noise floor
    # 16 n eps max|lambda|.  Zeroing |lambda| under that floor called it
    # RESONANT while the direct route solves it; the computed |lambda|
    # against the one threshold gives the finite value both routes agree on.
    rng = np.random.default_rng(22)
    net = random_connected_network(rng, 30, 30, kinds="R", decades=7.0)
    r = two_point_impedance(net, 1.0, 1, 2)
    d = solve_direct(net, 1.0, 1, 2)
    assert not isinstance(d, SingularSystem)
    assert r.status is ImpedanceStatus.FINITE
    threshold = laplacian.SINGULAR_REL_TOL * admittance_scale(net, 1.0)
    assert threshold < r.min_nontrivial_abs_lambda < 2.0 * threshold
    assert abs(r.value - d) <= 1e-9 * abs(d)


@pytest.mark.parametrize("net", [
    random_connected_network(np.random.default_rng(240), 240, 240, kinds, decades)
    for kinds, decades in (("R", 5.0), ("RLCZ", 3.0), ("LC", 1.0))
] + [grid_network(20, 20, 1.0, 1.0)], ids=["R1e5", "RLCZ1e3", "LC", "grid20x20"])
def test_trivial_mode_clears_the_zero_rule_as_computed(net):
    # The constant vector is an exact null vector of every assembled L, and
    # its computed |lambda| sits far below the zero threshold without being
    # set to 0, so a connected network always finds its trivial mode.
    for omega in (0.01, 0.7, 3.0):
        two_point_impedance(net, omega, 1, 2)  # no NoTrivialZeroError
        lap, scale, e = laplacian.node_system(net, omega)
        dec = takagi.takagi_rows(lap, (0, 1))
        a = int(np.argmax(np.abs(dec.col_sums)))
        assert abs(dec.col_sums[a]) >= 0.99 * math.sqrt(dec.order)
        threshold = laplacian.SINGULAR_REL_TOL * math.ldexp(scale, -e)
        assert abs(dec.lam[a]) <= 0.05 * threshold, omega


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("e", range(5, 13))
def test_verdict_matches_direct_near_resonance(e, sign):
    # Both routes apply the same rule on the same scale, so the spectral
    # verdict is RESONANT exactly when the direct solve is singular.
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + sign * 10.0 ** -e)
    r = two_point_impedance(net, omega, 1, 2)
    d = solve_direct(net, omega, 1, 2)
    assert (r.status is ImpedanceStatus.RESONANT) == isinstance(d, SingularSystem)


# ── argument validation ──────────────────────────────────────────────────

def test_impedance_beyond_the_float_range_rejected():
    # two 1e-310 F capacitors in series at omega = 1: 1/lambda overflowed
    # and the mode sum came out as nan - inf j; |Z| = 2e310 ohm
    net = Network(3, (
        Branch(1, 2, Element.capacitor(1e-310)),
        Branch(2, 3, Element.capacitor(1e-310)),
    ))
    for call in (
        lambda: two_point_impedance(net, 1.0, 1, 3),
        lambda: impedance_matrix(net, 1.0),
    ):
        with pytest.raises(ValidationError, match="exceeds the float range"):
            call()
    # 1e-300 F: lambda is normal and Z = 2e300 / j ohm
    net = Network(3, (
        Branch(1, 2, Element.capacitor(1e-300)),
        Branch(2, 3, Element.capacitor(1e-300)),
    ))
    assert two_point_impedance(net, 1.0, 1, 3).value == pytest.approx(-2e300j, rel=1e-14)


def test_invalid_pairs_rejected(triangle):
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 1, 1)
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 0, 2)
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 1, 4)
    for label in (1.5, 1.0, True):
        with pytest.raises(InvalidNodeError, match="must be an integer"):
            two_point_impedance(triangle, 1.0, label, 2)


def test_numpy_integer_labels_accepted():
    # A pair read off the table with np.unravel_index has numpy labels.
    net = grid_network(3, 3, 1.0, 1.0)
    want = two_point_impedance(net, 0.7, 1, 2).value
    for p in (np.int64(1), np.int32(1)):
        assert two_point_impedance(net, 0.7, p, np.int64(2)).value == want
