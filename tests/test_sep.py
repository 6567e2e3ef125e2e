"""Tests for the symbol-error-probability engines.

The two engines are cross-checked: the facet decomposition against its
closed form on cubic lattices and against direct simulation elsewhere,
with every Monte Carlo quantity pinned by a fixed seed so the assertions
are deterministic.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticesep import sep as sep_module
from latticesep.bounds import SnrGrid, mslb, msub
from latticesep.constellation import FiniteConstellation
from latticesep import cvp
from latticesep.cvp import TIE_TOL, BatchDecoder, Decoder
from latticesep.lattices import catalog_lattice, load_lattice, sublattice_generator
from latticesep.sep import (
    JSource,
    SepMethod,
    SimPlan,
    exact_sep_theorem1,
    sep_csv_rows,
    simulate_sep,
    write_sep_csv,
)
from latticesep.special import q_function, regularized_gamma_upper
from latticesep.streams import (
    SHARD_SIZE,
    coarse_normals,
    normal_angles,
    normal_radii,
    normals_from_angles,
    standard_normals,
    stream,
    uniform_symbols,
    uniforms_to_radii,
    uniforms_to_symbols,
)

# Closed-form anchors at rho = 10 (from the Q-function oracle).
J1_AT_10 = 0.886153701993342
Z2_4PAM_AT_10 = 0.16347889600196275


def closed_form_zn(n, big_k, rho):
    q = q_function(math.sqrt(rho) / 2.0)
    return 1.0 - ((1.0 + (big_k - 1) * (1.0 - 2.0 * q)) / big_k) ** n


def analytic_zn(n, big_k, db_values):
    c = FiniteConstellation(lattice=catalog_lattice(f"Z{n}"), K=big_k)
    return exact_sep_theorem1(c, SnrGrid.from_db_values(db_values), JSource.ANALYTIC_ZN)


def monte_carlo(name, big_k, db_values, trials, seed):
    c = FiniteConstellation(lattice=catalog_lattice(name), K=big_k)
    grid = SnrGrid.from_db_values(db_values)
    return exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=trials, seed=seed)


class TestJIntegralZn:
    def test_k_zero_is_one(self):
        # As rho -> 0 every J with k >= 1 vanishes, leaving J[0] = 1 alone:
        # P -> 1 - 1/K**N.
        for n, big_k in ((1, 2), (2, 4), (3, 32)):
            est = analytic_zn(n, big_k, [-300.0])[0]
            assert est.mean == pytest.approx(1.0 - 1.0 / big_k**n, abs=1e-12)

    def test_k_one_matches_q_function(self):
        # Z1 with K = 2: P = 1 - (1 + J1) / 2.
        est = analytic_zn(1, 2, [10.0])[0]
        assert 1.0 - 2.0 * est.mean == pytest.approx(J1_AT_10, abs=1e-15)
        assert est.ci_half_width == 0.0
        assert est.method is SepMethod.CLOSED_FORM_ZN

    def test_factorizes_over_coordinates(self):
        # Every J on Z_N is a power of the 1-d interval mass, so the
        # probability of a correct decision is the per-coordinate one cubed.
        for db in (-3.0, 10.0, 23.0):
            p1 = analytic_zn(1, 4, [db])[0].mean
            p3 = analytic_zn(3, 4, [db])[0].mean
            assert 1.0 - p3 == pytest.approx((1.0 - p1) ** 3, rel=1e-14)


def _facet_groups(lattice):
    # The half-spaces of each sublattice geometry that exact_sep_theorem1
    # estimates once: one per bit-identical Gram matrix.
    groups = {}
    n = lattice.dimension
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            generator = sublattice_generator(lattice, subset)
            groups.setdefault((generator.T @ generator).tobytes(), generator)
    return [sep_module._membership_halfspaces(generator) for generator in groups.values()]


def _reference_masses(v, half_norms, rhos, trials, seed):
    # The cell masses from double-precision gauges: every sample drawn by
    # standard_normals, (v @ z.T) / (h + TIE_TOL) in blocks of
    # _GAUGE_BLOCK // J rows, the max, then sort and searchsorted.
    k = v.shape[1]
    bounds = (half_norms + TIE_TOL)[:, None]
    rows = max(1, sep_module._GAUGE_BLOCK // len(v))
    gauges = []
    for start in range(0, trials, SHARD_SIZE):
        m = min(SHARD_SIZE, trials - start)
        z = standard_normals(stream(seed, start // SHARD_SIZE), m * k).reshape(m, k)
        gauges += [np.max((v @ z[i : i + rows].T) / bounds, axis=0) for i in range(0, m, rows)]
    inside = np.searchsorted(np.sort(np.concatenate(gauges)), np.sqrt(rhos), side="right")
    return [(c / trials, math.sqrt(c / trials * (1.0 - c / trials) / trials)) for c in inside.tolist()]


def _inject_normals(monkeypatch, samples):
    # _cell_masses_mc reads `samples` as its double-precision normals, and
    # 4e-6 off as its single-precision ones.
    for name, off in (("coarse_normals", 4e-6), ("normals_from_angles", 0.0)):

        def injected(radius, angle, count, entries=None, z=np.array(samples) + off):
            return z.copy() if entries is None else z[entries]

        monkeypatch.setattr(sep_module, name, injected)


class TestJIntegralMc:
    def test_cubic_sublattice_matches_analytic(self):
        # Every coordinate-subset sublattice of Z4 has a unit-cube cell, so
        # the estimate must land within four standard errors of the closed form.
        est = monte_carlo("Z4", 4, [10.0], 10**5, seed=17)[0]
        sigma = est.ci_half_width / 1.96
        assert sigma > 0.0
        assert abs(est.mean - analytic_zn(4, 4, [10.0])[0].mean) <= 4.0 * sigma

    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo("A2", 4, [10.0], 10**4, seed=5)
        b = monte_carlo("A2", 4, [10.0], 10**4, seed=5)
        c = monte_carlo("A2", 4, [10.0], 10**4, seed=6)
        assert a[0].mean == b[0].mean
        assert a[0].mean != c[0].mean

    def test_vanishing_noise_fills_the_cell(self):
        est = monte_carlo("A2", 4, [60.0], 10**4, seed=5)[0]
        assert est.mean == 0.0
        assert est.ci_half_width == 0.0

    def test_full_cell_mass_between_sphere_envelopes(self):
        # The rank-1 cells of A2 are intervals of length d_min, whose mass is
        # exact, so the bracket comes from the full hexagonal cell: it
        # contains its packing circle and has the area of the unit-area circle.
        a2 = catalog_lattice("A2")
        rho = 10.0
        est = monte_carlo("A2", 4, [10.0], 10**5, seed=11)[0]
        j1 = 1.0 - 2.0 * q_function(math.sqrt(rho) * a2.d_min / 2.0)

        def sep(j2):
            return 1.0 - (1.0 + 2 * 3 * j1 + 9 * j2) / 16.0

        packing = 1.0 - regularized_gamma_upper(1.0, rho * a2.d_min**2 / 8.0)
        equal_area = 1.0 - regularized_gamma_upper(1.0, rho / (2.0 * math.pi))
        sigma = est.ci_half_width / 1.96
        assert sep(equal_area) - 4.0 * sigma <= est.mean <= sep(packing) + 4.0 * sigma

    def test_monotone_in_snr_for_a_shared_seed(self):
        # One seed means one sample cloud scaled by sigma; the cells are convex
        # and symmetric, so membership can only grow as the noise shrinks.
        db_values = [10.0 * math.log10(rho) for rho in (1.0, 2.0, 5.0, 10.0, 50.0)]
        means = [est.mean for est in monte_carlo("A2", 4, db_values, 10**4, seed=5)]
        assert all(b <= a for a, b in zip(means, means[1:]))
        db_values = SnrGrid.from_db(0.0, 24.0, 0.5).db
        means = [est.mean for est in monte_carlo("E4", 4, db_values, 10**4, seed=5)]
        assert all(b <= a for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("points", [21, 3])
    def test_samples_are_drawn_once_per_group(self, monkeypatch, points):
        # E4 has 10 facet groups and 1e5 samples take 2 shards: 20 streams,
        # whatever the grid size.
        opened = []
        original = sep_module.stream

        def counting_stream(*args):
            opened.append(args)
            return original(*args)

        monkeypatch.setattr(sep_module, "stream", counting_stream)
        db_values = np.linspace(0.0, 20.0, points)
        monte_carlo("E4", 4, db_values, 10**5, seed=1)
        assert len(opened) == 20
        assert len(set(opened)) == 20

    def test_boundary_ties_count_inside(self, monkeypatch):
        # Z1's cell is [-1/2, 1/2]: test vectors +-1 with h = 1/2.  At
        # sigma = 1 a sample within TIE_TOL beyond the face is still inside.
        # Every gauge is near the limit 1, so the exact normal decides.
        vt, half_norms = sep_module._membership_halfspaces(np.eye(1))
        assert np.array_equal(half_norms, [0.5, 0.5])
        cases = [([0.5], 1.0), ([-0.5], 1.0), ([0.5 + 0.5e-12], 1.0), ([0.5 + 2e-12], 0.0),
                 ([-0.5 - 2e-12], 0.0)]
        for samples, expected in cases:
            _inject_normals(monkeypatch, samples)
            mass, _ = sep_module._cell_masses_mc(vt, half_norms, np.array([1.0]), 1, seed=0)[0]
            assert mass == expected, samples

    def test_a_gauge_on_its_limit_counts_inside(self, monkeypatch):
        # On 1.3 Z the gauge 1.3 z / b, b = 1.3**2 / 2 + TIE_TOL, of this
        # sample is sqrt(rho), so it is inside; from the folded vector
        # 1.3 / b its gauge is one ulp above.
        v, half_norms = sep_module._membership_halfspaces(np.array([[1.3]]))
        z, limit, b = 0.46933057958903024, 0.7220470455207304, half_norms[0] + TIE_TOL
        assert (1.3 / b) * z > limit == 1.3 * z / b
        _inject_normals(monkeypatch, [z])
        assert sep_module._cell_masses_mc(v, half_norms, np.array([limit**2]), 1, seed=0)[0][0] == 1.0

    @pytest.mark.parametrize("name", ["E4", "A2"])
    def test_short_blocks_keep_the_masses(self, monkeypatch, name):
        # 1000-row blocks: each shard, and the run, ends in a short block.
        v, half_norms = sep_module._membership_halfspaces(catalog_lattice(name).generator)
        rhos = 10.0 ** (np.arange(0.0, 21.0, 2.0) / 10.0)
        trials = SHARD_SIZE + 10007
        masses = sep_module._cell_masses_mc(v, half_norms, rhos, trials, seed=4)
        monkeypatch.setattr(sep_module, "_GAUGE_BLOCK", 1000 * len(v))
        assert sep_module._cell_masses_mc(v, half_norms, rhos, trials, seed=4) == masses

    @pytest.mark.parametrize(
        "lattice,trials",
        [
            (catalog_lattice("E4"), SHARD_SIZE + 10007),
            (catalog_lattice("A2"), SHARD_SIZE + 10007),
            (load_lattice([[1.0, 0.6, -0.3], [0.2, 1.1, 0.7], [-0.4, 0.3, 0.9]]), SHARD_SIZE + 10007),
            (catalog_lattice("E8"), 10**4),
        ],
        ids=["E4", "A2", "skewed-3", "E8"],
    )
    def test_masses_match_the_double_precision_gauges(self, lattice, trials):
        # Every facet group, on a 0.05 dB grid from 0 to 30 dB and at -30
        # and 300 dB (a limit far beyond every gauge).
        db = np.concatenate([[-30.0], np.arange(0.0, 30.001, 0.05), [300.0]])
        rhos = 10.0 ** (db / 10.0)
        for seed, (v, half_norms) in enumerate(_facet_groups(lattice)):
            masses = sep_module._cell_masses_mc(v, half_norms, rhos, trials, seed)
            assert masses == _reference_masses(v, half_norms, rhos, trials, seed), seed

    def test_a_wide_coarse_slack_keeps_every_mass(self, monkeypatch):
        # Widened from 2**-14 to 0.01, the slack sends many more samples to
        # the exact gauges, and every mass stays.
        rhos = 10.0 ** (np.arange(0.0, 21.0, 1.0) / 10.0)
        groups = _facet_groups(catalog_lattice("E4")) + _facet_groups(catalog_lattice("A2"))
        exact = []

        def counting(radius, angle, count, entries):
            exact.append(entries.size)
            return normals_from_angles(radius, angle, count, entries)

        monkeypatch.setattr(sep_module, "normals_from_angles", counting)
        formed, masses, narrow = {}, {}, sep_module._COARSE_SLACK
        for slack in (narrow, 0.01):
            monkeypatch.setattr(sep_module, "_COARSE_SLACK", slack)
            exact.clear()
            masses[slack] = [sep_module._cell_masses_mc(v, h, rhos, 20000, seed) for seed, (v, h) in
                             enumerate(groups)]
            formed[slack] = sum(exact)
        assert masses[0.01] == masses[narrow]
        assert formed[0.01] > 20 * formed[narrow] > 0, formed

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo("A2", 4, [10.0], 10**3, seed=0)
        with pytest.raises(ValueError):
            monte_carlo("Z9", 2, [10.0], 10**4, seed=0)


class TestExactSepClosedForm:
    def test_matches_the_cubic_closed_form(self):
        grid = SnrGrid.from_db(0.0, 30.0, 2.5)
        for n in (1, 2, 4, 8):
            lattice = catalog_lattice(f"Z{n}")
            for big_k in (2, 4, 32):
                c = FiniteConstellation(lattice=lattice, K=big_k)
                ests = exact_sep_theorem1(c, grid, JSource.ANALYTIC_ZN)
                for est in ests:
                    assert est.mean == pytest.approx(closed_form_zn(n, big_k, est.rho), abs=1e-12)
                    assert est.method is SepMethod.CLOSED_FORM_ZN
                    assert est.ci_half_width == 0.0
                    assert est.reliable

    def test_one_dimension_reduces_to_pam(self):
        z1 = catalog_lattice("Z1")
        grid = SnrGrid.from_db(0.0, 24.0, 3.0)
        for big_k in (2, 4, 32):
            c = FiniteConstellation(lattice=z1, K=big_k)
            for est in exact_sep_theorem1(c, grid, JSource.ANALYTIC_ZN):
                pam = 2.0 * (1.0 - 1.0 / big_k) * q_function(math.sqrt(est.rho) / 2.0)
                assert est.mean == pytest.approx(pam, abs=1e-12)

    def test_frozen_square_16_point_value(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        est = exact_sep_theorem1(c, SnrGrid.from_db_values([10.0]), JSource.ANALYTIC_ZN)[0]
        assert est.mean == pytest.approx(Z2_4PAM_AT_10, abs=1e-14)

    def test_rejects_non_cubic_lattices(self):
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=4)
        with pytest.raises(ValueError):
            exact_sep_theorem1(c, SnrGrid.from_db_values([10.0]), JSource.ANALYTIC_ZN)

    def test_rejects_unknown_source(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        with pytest.raises(ValueError):
            exact_sep_theorem1(c, SnrGrid.from_db_values([10.0]), "analytic_zn")


class TestExactSepMonteCarlo:
    def test_agrees_with_closed_form_on_the_square_lattice(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([10.0])
        est = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**5, seed=3)[0]
        assert est.method is SepMethod.THEOREM1
        assert est.ci_half_width > 0.0
        sigma = est.ci_half_width / 1.96
        assert abs(est.mean - Z2_4PAM_AT_10) <= 4.0 * sigma

    def test_deterministic_for_fixed_seed(self):
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=4)
        grid = SnrGrid.from_db_values([6.0, 12.0])
        a = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**4, seed=21)
        b = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**4, seed=21)
        assert [e.mean for e in a] == [e.mean for e in b]
        assert [e.ci_half_width for e in a] == [e.ci_half_width for e in b]

    def test_matches_direct_simulation_on_a_vertex_only_carving(self):
        # K = 2 keeps every point on a vertex; the decomposition and the
        # simulator must agree within their combined uncertainty.
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=2)
        grid = SnrGrid.from_db_values([10.0])
        mc = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=5 * 10**4, seed=3)[0]
        sim = simulate_sep(
            SimPlan(constellation=c, grid=grid, seed=9, max_trials=2 * 10**5, target_errors=10**9)
        )[0]
        combined = math.hypot(mc.ci_half_width / 1.96, sim.ci_half_width / 1.96)
        assert abs(mc.mean - sim.mean) <= 3.0 * combined

    def test_sandwiched_by_the_sphere_bounds(self):
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=4)
        grid = SnrGrid.from_db(2.0, 14.0, 4.0)
        lower = mslb(c, grid).values
        upper = msub(c, grid).values
        ests = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=2 * 10**4, seed=8)
        for i, est in enumerate(ests):
            slack = 3.0 * est.ci_half_width / 1.96
            assert lower[i] <= est.mean + slack
            assert est.mean - slack <= upper[i]

    def test_budget_validation(self):
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=4)
        grid = SnrGrid.from_db_values([10.0])
        with pytest.raises(ValueError):
            exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**3)

    def test_ill_conditioned_generator_is_refused_before_any_work(self, monkeypatch):
        # A rotated diag(2e4, 5e-5): condition number 4e8.
        turn = math.pi / 6.0
        rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        needle = load_lattice(rotation * [2e4, 5e-5], name="needle", normalize=False)

        def no_work(*args):
            raise AssertionError("exact_sep_theorem1 started work on a refused generator")

        monkeypatch.setattr(sep_module, "sublattice_generator", no_work)
        monkeypatch.setattr(sep_module, "_cell_masses_mc", no_work)
        c = FiniteConstellation(lattice=needle, K=4)
        with pytest.raises(ValueError, match=r"needle needs a generator condition number <= 1e\+08, got 4e\+08"):
            exact_sep_theorem1(c, SnrGrid.from_db_values([10.0]), JSource.MC_VORONOI, trials_per_j=10**4)


class TestSimPlan:
    def test_defaults(self):
        z2 = catalog_lattice("Z2")
        plan = SimPlan(
            constellation=FiniteConstellation(lattice=z2, K=4),
            grid=SnrGrid.from_db(0.0, 30.0, 0.25),
            seed=0,
        )
        assert plan.max_trials == 10**7
        assert plan.target_errors == 100

    def test_validation(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db(0.0, 30.0, 0.25)
        with pytest.raises(ValueError):
            SimPlan(constellation=c, grid=grid, seed=0, max_trials=9_999)
        with pytest.raises(ValueError):
            SimPlan(constellation=c, grid=grid, seed=0, target_errors=49)
        with pytest.raises(ValueError):
            SimPlan(constellation=c, grid=grid, seed=-1)
        with pytest.raises(ValueError):
            SimPlan(constellation=c, grid=grid, seed=1 << 64)
        z9 = catalog_lattice("Z9")
        with pytest.raises(ValueError):
            SimPlan(constellation=FiniteConstellation(lattice=z9, K=2), grid=grid, seed=0)

    def test_numpy_integer_seeds_are_accepted(self):
        c = FiniteConstellation(lattice=catalog_lattice("Z2"), K=4)
        grid = SnrGrid.from_db_values([10.0])
        plan = SimPlan(constellation=c, grid=grid, seed=np.uint64(7))
        assert plan.seed == 7 and type(plan.seed) is int
        for seed in (np.int64(-1), 7.0, "7", True):
            with pytest.raises(ValueError, match="seed must"):
                SimPlan(constellation=c, grid=grid, seed=seed)

    def test_levels_above_2_to_20_are_refused(self):
        # Beyond them y = G u + e holds too few bits of the noise for a
        # decoder: on Z2, K = 2**52 simulated a 20 dB SEP of 6.6e-3
        # against an exact 1.1e-6.
        grid = SnrGrid.from_db_values([10.0])
        z2 = catalog_lattice("Z2")
        plan = SimPlan(constellation=FiniteConstellation(lattice=z2, K=1 << 20), grid=grid, seed=0)
        assert plan.constellation.K == 1 << 20
        with pytest.raises(ValueError, match="K must be at most 1048576"):
            SimPlan(constellation=FiniteConstellation(lattice=z2, K=(1 << 20) + 1), grid=grid, seed=0)

    def test_ill_conditioned_diagonal_generator_is_refused(self):
        # Condition number 4e8.  A diagonal generator needs no relevant-vector
        # search, but the plan refuses it as the CLI always has.
        lattice = load_lattice([[2e4, 0.0], [0.0, 5e-5]], name="diagonal", normalize=False)
        c = FiniteConstellation(lattice=lattice, K=4)
        with pytest.raises(ValueError, match=r"condition number <= 1e\+08, got 4e\+08"):
            SimPlan(constellation=c, grid=SnrGrid.from_db_values([10.0]), seed=0)

    @pytest.mark.parametrize("value", [20000.0, True, "20000"])
    def test_budgets_must_be_integers(self, value):
        c = FiniteConstellation(lattice=catalog_lattice("A2"), K=4)
        grid = SnrGrid.from_db_values([10.0])
        for field in ("max_trials", "target_errors"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SimPlan(constellation=c, grid=grid, seed=0, **{field: value})
        with pytest.raises(ValueError, match="trials_per_j must be an integer"):
            exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=value)


class TestDecoderChoice:
    @pytest.mark.parametrize(
        "name,big_k,method,diagonal",
        [
            ("Z2", 2, Decoder.BRUTE_FORCE, True),
            ("Z8", 4, Decoder.SPHERE_DECODER, True),
            ("A2", 4, Decoder.BRUTE_FORCE, False),
            ("A2", 64, Decoder.BRUTE_FORCE, False),  # 4096 points
            ("A2", 65, Decoder.SPHERE_DECODER, False),  # 4225 points
            ("E4", 8, Decoder.BRUTE_FORCE, False),  # 4096 points
            ("E4", 9, Decoder.SPHERE_DECODER, False),  # 6561 points
            ("E8", 2, Decoder.BRUTE_FORCE, False),
            ("E8", 4, Decoder.SPHERE_DECODER, False),
        ],
    )
    def test_search_follows_the_constellation(self, name, big_k, method, diagonal):
        # The point table up to 2**12 points, else the sphere search, for
        # every generator; only a non-diagonal one gets a certificate, and
        # with it the radius query.
        generator = catalog_lattice(name).generator
        assert sep_module._decoder(generator, big_k).method is method
        assert sep_module._is_diagonal(generator) is diagonal


class TestSimulateSep:
    def test_confidence_interval_contains_the_closed_form(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([10.0])
        plan = SimPlan(constellation=c, grid=grid, seed=7, max_trials=2 * 10**5, target_errors=10**9)
        est = simulate_sep(plan)[0]
        assert est.method is SepMethod.DIRECT_MC
        assert est.reliable
        assert est.trials == 2 * 10**5
        assert est.mean - est.ci_half_width <= Z2_4PAM_AT_10 <= est.mean + est.ci_half_width

    def test_thread_count_does_not_change_the_result(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([6.0, 10.0])
        plan = SimPlan(constellation=c, grid=grid, seed=7, max_trials=3 * 10**5, target_errors=10**9)
        one = simulate_sep(plan, threads=1)
        four = simulate_sep(plan, threads=4)
        assert [(e.mean, e.trials, e.errors_observed) for e in one] == [
            (e.mean, e.trials, e.errors_observed) for e in four
        ]

    def test_early_stopping_lands_on_a_shard_boundary(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([4.0])
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=10**7, target_errors=100)
        est = simulate_sep(plan)[0]
        assert est.trials == 1 << 16  # the first shard already has > 100 errors
        assert est.errors_observed >= 100

    def test_max_trials_truncates_the_final_shard(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([10.0])
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=12_345, target_errors=10**9)
        est = simulate_sep(plan)[0]
        assert est.trials == 12_345

    def test_zero_errors_is_flagged_unreliable(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([60.0])
        plan = SimPlan(constellation=c, grid=grid, seed=7, max_trials=10**4, target_errors=100)
        est = simulate_sep(plan)[0]
        assert est.mean == 0.0
        assert est.errors_observed == 0
        assert est.ci_half_width == 0.0
        assert not est.reliable

    def test_sphere_and_brute_force_agree_trial_by_trial(self, monkeypatch):
        # A2 K = 4 decodes from its 16-point table; with no table allowed
        # the same run takes the sphere search and counts the same errors.
        a2 = catalog_lattice("A2")
        c = FiniteConstellation(lattice=a2, K=4)
        grid = SnrGrid.from_db_values([8.0])
        plan = SimPlan(constellation=c, grid=grid, seed=5, max_trials=10**4, target_errors=10**9)
        brute = simulate_sep(plan)[0]
        monkeypatch.setattr(sep_module, "_TABLE_POINTS", 0)
        assert sep_module._decoder(a2.generator, 4).method is Decoder.SPHERE_DECODER
        sphere = simulate_sep(plan)[0]
        assert sphere.errors_observed == brute.errors_observed
        assert sphere.trials == brute.trials

    def test_diagonal_fast_path_agrees_with_brute_force(self):
        # Z2 is rounded; a brute-force decode of every trial of the same
        # shard counts the same errors.
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([8.0])
        plan = SimPlan(constellation=c, grid=grid, seed=5, max_trials=10**4, target_errors=10**9)
        rounded = simulate_sep(plan)[0]
        brute = BatchDecoder(z2.generator, 4, Decoder.BRUTE_FORCE)
        sigma = 1.0 / math.sqrt(rounded.rho)
        full = _full_path_errors(z2.generator, 4, brute, None, sigma, stream(5, 0, 0), 10**4)
        assert rounded.errors_observed == np.count_nonzero(full)

    def test_reliability_threshold_is_twenty_errors(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        # 17 dB: rare errors; the full budget runs out with only a handful.
        grid = SnrGrid.from_db_values([17.0])
        plan = SimPlan(constellation=c, grid=grid, seed=3, max_trials=10**4, target_errors=100)
        est = simulate_sep(plan)[0]
        assert 0 < est.errors_observed < 20
        assert not est.reliable
        assert est.ci_half_width > 0.0

    def test_first_shard_reaching_the_target_opens_one_stream(self, monkeypatch):
        # Z2 K = 4 at 0 dB: the first shard has thousands of errors, so a
        # second shard's stream is never opened, whatever the thread count.
        opened = []
        original = sep_module.stream

        def counting(*args):
            opened.append(args)
            return original(*args)

        monkeypatch.setattr(sep_module, "stream", counting)
        c = FiniteConstellation(lattice=catalog_lattice("Z2"), K=4)
        grid = SnrGrid.from_db_values([0.0])
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=4 * SHARD_SIZE, target_errors=50)
        est = simulate_sep(plan, threads=2)[0]
        assert est.trials == SHARD_SIZE and est.errors_observed >= 50
        assert opened == [(1, 0, 0)]

    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    def test_points_open_the_same_streams_whatever_the_thread_count(self, monkeypatch, threads):
        # Z2 K = 4: at 0 dB one shard reaches the target, at 12 dB two do,
        # and at 20 dB the point runs to the cap, ending in a partial shard.
        # Every thread count opens exactly these streams and counts the
        # same; a short switch interval makes the workers interleave often.
        opened = []
        original = sep_module.stream

        def counting(*args):
            opened.append(args)
            return original(*args)

        monkeypatch.setattr(sep_module, "stream", counting)
        c = FiniteConstellation(lattice=catalog_lattice("Z2"), K=4)
        grid = SnrGrid.from_db_values([0.0, 12.0, 20.0])
        cap = 2 * SHARD_SIZE + 1000
        plan = SimPlan(constellation=c, grid=grid, seed=3, max_trials=cap, target_errors=6000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = [(e.trials, e.errors_observed) for e in simulate_sep(plan, threads=threads)]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [(SHARD_SIZE, 46614), (2 * SHARD_SIZE, 8984), (cap, 0)]
        assert sorted(opened) == [(3, 0, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 2, 2)]

    def test_estimates_come_back_in_grid_order(self, monkeypatch):
        # Point 0's only shard waits until the other points have finished,
        # so its estimate arrives last; the curve is still in grid order
        # and equal to the one-thread curve.
        c = FiniteConstellation(lattice=catalog_lattice("Z2"), K=4)
        plan = SimPlan(constellation=c, grid=SnrGrid.from_db_values([0.0, 2.0, 4.0]), seed=9, max_trials=10**4)
        one = simulate_sep(plan, threads=1)
        first_sigma = 1.0 / math.sqrt(float(plan.grid.rho[0]))
        original = sep_module._shard_errors
        finished = []
        others_done = threading.Event()

        def ordered(generator, big_k, decoder, cert, limit, sigma, *rest):
            if sigma == first_sigma:
                assert others_done.wait(timeout=60)
            errors = original(generator, big_k, decoder, cert, limit, sigma, *rest)
            finished.append(sigma)
            if len(finished) == 2:
                others_done.set()
            return errors

        monkeypatch.setattr(sep_module, "_shard_errors", ordered)
        three = simulate_sep(plan, threads=3)
        assert finished[-1] == first_sigma
        assert three == one

    def test_threads_validation(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        plan = SimPlan(constellation=c, grid=SnrGrid.from_db_values([10.0]), seed=0)
        with pytest.raises(ValueError):
            simulate_sep(plan, threads=0)
        with pytest.raises(ValueError):
            simulate_sep("plan")
        with pytest.raises(ValueError, match="threads must be an integer"):
            simulate_sep(plan, threads=2.9)


class TestSepCsv:
    def test_header_and_formatting(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        grid = SnrGrid.from_db_values([10.0])
        plan = SimPlan(constellation=c, grid=grid, seed=7, max_trials=10**4, target_errors=10**9)
        rows = sep_csv_rows(simulate_sep(plan), c, 7)
        assert rows[0] == "snr_db,sep,ci_low,ci_high,trials,errors,method,lattice,K,seed"
        fields = rows[1].split(",")
        assert fields[0] == "10"
        assert fields[4] == "10000"
        assert fields[6] == "direct_mc"
        assert fields[7] == "Z2"
        assert fields[8] == "4"
        assert fields[9] == "7"
        assert float(fields[2]) <= float(fields[1]) <= float(fields[3])

    def test_closed_form_rows_have_empty_seed(self):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        ests = exact_sep_theorem1(c, SnrGrid.from_db_values([10.0]), JSource.ANALYTIC_ZN)
        row = sep_csv_rows(ests, c, None)[1]
        assert row.endswith(",closed_form_zn,Z2,4,")
        assert row.split(",")[1] == "0.163478896002"

    def test_write_round_trip(self, tmp_path):
        z2 = catalog_lattice("Z2")
        c = FiniteConstellation(lattice=z2, K=4)
        ests = exact_sep_theorem1(c, SnrGrid.from_db(0.0, 4.0, 1.0), JSource.ANALYTIC_ZN)
        path = tmp_path / "sep.csv"
        write_sep_csv(path, ests, c, None)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 6


# Random 2-3-D bases, entries in [-2, 2].
_SQUARE_MATRICES = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


def _unit_volume_basis(matrix):
    # The matrix scaled to unit volume; near-singular draws are skipped.
    m = np.array(matrix)
    norms = np.linalg.norm(m, axis=0)
    assume(np.all(norms > 0.1) and abs(np.linalg.det(m)) >= 0.05 * np.prod(norms))
    return m / abs(np.linalg.det(m)) ** (1.0 / m.shape[0])


# Offsets of the near-tie rows x_u + v_j / 2 + delta v_j, against the 1e-12 tie window.
_DELTAS = (0.0, 1e-14, -1e-14, 1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10)


def _certified_rows(generator, big_k, rng, vectors=None, random_rows=400):
    # Rows (u, e) of a simulation: random ones at 0-20 dB, and near-tie
    # rows at the midpoint of x_u and x_u + v_j for the test vectors
    # v_j (every one, or the given indices), with u at a random box point
    # and at a box corner.  Returns the certificate, u, e and the mask of
    # the delta = 0 rows.  The test vectors are Voronoi-relevant, so each
    # delta = 0 row is a true tie: x_u and x_u + v_j are its two closest
    # lattice points.
    n = generator.shape[0]
    cert = sep_module._certificate(generator, big_k)
    sigmas = 10.0 ** (-rng.uniform(0.0, 20.0, random_rows) / 20.0)
    us = [rng.integers(0, big_k, (random_rows, n))]
    es = [rng.standard_normal((random_rows, n)) * sigmas[:, None]]
    ties = [np.zeros(random_rows, dtype=bool)]
    chosen = cert.vectors if vectors is None else cert.vectors[vectors]
    for corner in (rng.integers(0, big_k, n), rng.integers(0, 2, n) * (big_k - 1)):
        for delta in _DELTAS:
            us.append(np.tile(corner, (len(chosen), 1)))
            es.append((0.5 + delta) * chosen)
            ties.append(np.full(len(chosen), delta == 0.0))
    return cert, np.concatenate(us), np.concatenate(es), np.concatenate(ties)


def _assert_certificate_matches_decoding(generator, big_k, seed, vectors=None):
    cert, u, e, ties = _certified_rows(generator, big_k, np.random.default_rng(seed), vectors)
    wrong, rows = sep_module._certify(cert, u, e)
    y = u @ generator.T + e
    undecided = np.zeros(len(u), dtype=bool)
    undecided[rows] = True
    assert not np.any(wrong & undecided)
    assert np.all(undecided[ties])  # exact ties always go to the decoder
    assert wrong.any() and np.any(~wrong & ~undecided)
    for method in Decoder:
        full = np.any(BatchDecoder(generator, big_k, method).decode(y) != u, axis=1)
        assert np.array_equal(wrong[~undecided], full[~undecided]), method


class TestCertificate:
    @pytest.mark.parametrize(
        "name,big_k,vectors",
        [("A2", 4, None), ("A2", 2, None), ("E4", 3, None), ("E8", 2, slice(None, None, 10))],
    )
    def test_verdicts_match_decoding_on_catalog_lattices(self, name, big_k, vectors):
        _assert_certificate_matches_decoding(catalog_lattice(name).generator, big_k, 3, vectors)

    @given(matrix=_SQUARE_MATRICES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_verdicts_match_decoding_on_random_bases(self, matrix):
        g = _unit_volume_basis(matrix)
        _assert_certificate_matches_decoding(g, 4, 5)

    def test_verdicts_match_decoding_on_a_near_square_basis(self):
        # The diagonal cosets hold vectors of squared norms 2 -+ 2e-10, and
        # only the shorter is relevant; the midpoint of the longer is no tie,
        # as the origin's other neighbours are closer by 1e-10.
        _assert_certificate_matches_decoding(np.array([[0.0, 1.0], [1.0, 1e-10]]), 4, 5)

    def test_verdicts_match_decoding_with_every_shortest_coset_vector(self):
        # Squared norms of 1e4: every shortest coset vector is kept, the tied
        # diagonals of 100 Z2 included.
        _assert_certificate_matches_decoding(100.0 * np.eye(2), 4, 5)

    def test_box_limits_which_neighbours_count(self):
        # Z1 with K = 2: at u = 0 the neighbour -1 is outside the box, so
        # noise past -1/2 is no error; past +1/2 it is.
        cert = sep_module._certificate(np.eye(1), 2)
        e = np.array([[-0.7], [0.7], [0.2]])
        wrong, rows = sep_module._certify(cert, np.zeros((3, 1), dtype=np.int64), e)
        assert wrong.tolist() == [False, True, False]
        assert rows.tolist() == [0]

    def test_no_certificate_leaves_every_row_undecided(self):
        e = np.array([[-0.7], [0.7], [0.2]])
        wrong, rows = sep_module._certify(None, np.zeros((3, 1), dtype=np.int64), e)
        assert wrong.tolist() == [False, False, False]
        assert rows.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "generator,big_k,reach,groups",
        [
            (catalog_lattice("E4").generator, 4, 2, [4]),
            (catalog_lattice("A2").generator, 5, 1, [2]),
            (catalog_lattice("E4").generator, 32, 2, [3, 1]),  # 5 rows a coordinate: 125 and 5 classes
            (np.array([[1.0, 0.6, -0.3], [0.2, 1.1, 0.7], [-0.4, 0.3, 0.9]]), 7, 2, [3]),
        ],
        ids=["E4-4", "A2-5", "E4-32", "skewed-3"],
    )
    def test_in_box_tables_match_the_direct_test(self, generator, big_k, reach, groups):
        # Every level vector u of the box, against 0 <= u + c_j < K directly.
        n = generator.shape[0]
        cert = sep_module._certificate(generator, big_k)
        assert cert.reach == reach
        assert [np.count_nonzero(column) for column in cert.radix.T] == groups
        assert all(table.shape[0] <= 256 for table in cert.in_box)
        coeffs = np.rint(np.linalg.solve(generator, cert.vectors.T)).astype(np.int64)
        levels = np.indices((big_k,) * n).reshape(n, -1).T
        for first in range(0, len(levels), 1 << 15):
            u = levels[first : first + (1 << 15)]
            direct = np.ones((len(u), coeffs.shape[1]), dtype=bool)
            for i in range(n):
                direct &= (u[:, i : i + 1] + coeffs[i] >= 0) & (u[:, i : i + 1] + coeffs[i] < big_k)
            assert np.array_equal(sep_module._in_box(cert, u), direct)

    def test_in_box_table_is_bounded_for_large_k(self):
        # Rows x_u + 0.6 v_j at the box corners and inside: v_j's point is
        # closer than x_u, and in the box or not depending on the corner.
        big_k = 10**6
        g = catalog_lattice("A2").generator
        cert = sep_module._certificate(g, big_k)
        assert [table.shape[0] for table in cert.in_box] == [(2 * cert.reach + 1) ** 2]
        corners = np.array([[0, 0], [0, big_k - 1], [big_k - 1, 0], [big_k - 1, big_k - 1], [500, 7]])
        u = np.repeat(corners, cert.half_norms.size, axis=0)
        e = np.tile(0.6 * cert.vectors, (len(corners), 1))
        wrong, rows = sep_module._certify(cert, u, e)
        decided = np.ones(len(u), dtype=bool)
        decided[rows] = False
        full = np.any(BatchDecoder(g, big_k, Decoder.SPHERE_DECODER).decode(u @ g.T + e) != u, axis=1)
        assert np.array_equal(wrong[decided], full[decided])
        assert wrong.any() and rows.size > 0
        assert np.all(wrong[-cert.half_norms.size :])  # every neighbour of an inner point is in the box

    @pytest.mark.parametrize("name,big_k", [("E4", 4), ("E8", 2)])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_short_blocks_keep_the_verdicts(self, monkeypatch, name, big_k, rows):
        cert, u, e, _ = _certified_rows(catalog_lattice(name).generator, big_k, np.random.default_rng(11))
        wrong, undecided = sep_module._certify(cert, u, e)
        monkeypatch.setattr(sep_module, "_CERT_BLOCK", rows * cert.half_norms.size)
        short_wrong, short_undecided = sep_module._certify(cert, u, e)
        assert np.array_equal(short_wrong, wrong)
        assert np.array_equal(short_undecided, undecided)


def _assert_query_matches_table(generator, big_k, seed, vectors=None):
    # The radius query on every row of _certified_rows, not only on those
    # the certificate leaves open: each row it settles is an error iff the
    # point table decodes it elsewhere.  The simulator's whole path
    # (_errors: certificate, query, sphere search) gives the sphere
    # search's verdict on every row; the table's agrees outside the tie
    # window, where the two searches' rounding of |y|**2-sized values can
    # split a near tie differently.  Returns the mask of the rows the
    # query leaves to the sphere search.
    cert, u, e, ties = _certified_rows(generator, big_k, np.random.default_rng(seed), vectors)
    sphere = BatchDecoder(generator, big_k, Decoder.SPHERE_DECODER)
    brute = BatchDecoder(generator, big_k, Decoder.BRUTE_FORCE)
    y = u @ generator.T + e
    table = np.any(brute.decode(y) != u, axis=1)
    own, other = sphere.radius_query(u, e)
    settled = other < own - 2.0 * TIE_TOL
    assert np.array_equal((other > -np.inf)[settled], table[settled])
    full = np.any(sphere.decode(y) != u, axis=1)
    assert np.array_equal(sep_module._errors(generator, sphere, cert, u, e), full)
    return ~settled


class TestRadiusQuery:
    def test_verdicts_match_the_table_on_e8(self):
        # E8 K = 4, 65536 points: the simulator's own case.  Exact ties
        # with an in-box neighbour reach the sphere search.
        generator = catalog_lattice("E8").generator
        open_rows = _assert_query_matches_table(generator, 4, 3, slice(None, None, 20))
        assert 0 < np.count_nonzero(open_rows) < open_rows.size // 2

    @given(matrix=_SQUARE_MATRICES)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_verdicts_match_the_table_on_random_bases(self, matrix):
        _assert_query_matches_table(_unit_volume_basis(matrix), 5, 5)

    def test_settles_errors_and_correct_rows_on_a_skewed_basis(self):
        g = load_lattice([[1.0, 0.6, -0.3], [0.2, 1.1, 0.7], [-0.4, 0.3, 0.9]]).generator
        cert, u, e, ties = _certified_rows(g, 20, np.random.default_rng(7))
        own, other = BatchDecoder(g, 20, Decoder.SPHERE_DECODER).radius_query(u, e)
        settled = other < own - 2.0 * TIE_TOL
        assert np.any(settled & (other > -np.inf)) and np.any(settled & (other == -np.inf))
        # At an exact tie row y = G u + v_j / 2 the point G (u + c_j) ties
        # G u; where it is in the box, the row is left to the sphere search.
        neighbour = u + np.rint(np.linalg.solve(g, 2.0 * e.T)).T.astype(np.int64)
        tied = ties & np.all((neighbour >= 0) & (neighbour < 20), axis=1)
        assert tied.any() and not np.any(settled[tied])
        _assert_query_matches_table(g, 20, 7)

    def test_verdicts_match_the_table_on_a_signed_diagonal(self):
        # A diagonal generator is queried as any other, mirrored axis included.
        _assert_query_matches_table(np.diag([2.0, -0.5, 1.0]), 5, 13)

    def test_tiny_chunks_keep_the_verdicts(self, monkeypatch):
        # With 6 nodes per enumeration step, levels and single windows are
        # split into many chunks; the query still settles rows as the
        # table does, and leaves only tie-band rows open.
        monkeypatch.setattr(cvp, "_CHUNK", 6)
        open_rows = _assert_query_matches_table(catalog_lattice("A2").generator, 8, 11)
        assert 0 < np.count_nonzero(open_rows) < open_rows.size // 2

    def test_rejects_searches_without_a_query(self):
        u, e = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2))
        for decoder in (
            BatchDecoder(catalog_lattice("A2").generator, 4, Decoder.BRUTE_FORCE),
            BatchDecoder(catalog_lattice("A2").generator, None, Decoder.SPHERE_DECODER),
        ):
            with pytest.raises(ValueError):
                decoder.radius_query(u, e)


def _count_decoded_rows(monkeypatch):
    # Rows passed to BatchDecoder.decode or .decode_indices, in all.
    decoded = [0]
    for name in ("decode", "decode_indices"):
        original = getattr(BatchDecoder, name)

        def counting(self, targets, original=original):
            decoded[0] += len(targets)
            return original(self, targets)

        monkeypatch.setattr(BatchDecoder, name, counting)
    return decoded


class TestDecodedRows:
    def test_certificate_decides_most_trials(self, monkeypatch):
        decoded = _count_decoded_rows(monkeypatch)
        c = FiniteConstellation(lattice=catalog_lattice("E4"), K=4)
        grid = SnrGrid.from_db_values([20.0])
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=SHARD_SIZE, target_errors=10**9)
        est = simulate_sep(plan)[0]
        assert est.trials == SHARD_SIZE
        assert decoded[0] <= 0.1 * est.trials

    def test_radial_screen_leaves_few_rounding_trials_to_decode(self, monkeypatch):
        decoded = _count_decoded_rows(monkeypatch)
        c = FiniteConstellation(lattice=catalog_lattice("Z3"), K=4)
        grid = SnrGrid.from_db_values([20.0])
        plan = SimPlan(
            constellation=c,
            grid=grid,
            seed=1,
            max_trials=SHARD_SIZE,
            target_errors=10**9,
        )
        est = simulate_sep(plan)[0]
        assert est.trials == SHARD_SIZE
        assert decoded[0] <= 0.01 * est.trials


def _full_path_errors(generator, big_k, decoder, cert, sigma, rng, m):
    # Per-row errors of a shard drawn and decided whole: every symbol, every
    # normal and every received point, then the certificate and the decoder.
    n = generator.shape[0]
    u = uniform_symbols(rng, m * n, big_k).reshape(m, n)
    e = standard_normals(rng, m * n).reshape(m, n) * sigma
    y = u @ generator.T + e
    wrong, rows = sep_module._certify(cert, u, e)
    wrong[rows] = np.any(decoder.decode(y[rows]) != u[rows], axis=1)
    return wrong


def _settled_rows(screen, raw, m, n, squared=None):
    # The rows of an (m, n) noise block that the raw-uniform screen settles,
    # from its radial uniforms `raw`.  A certificate leaves a row open when
    # the product of its entries' 1 - u is at most the bound
    # (sep._open_rows).  Rounding settles entry t when the uniform of its
    # pair, t (cosine) or t - pairs (sine), is below the cut of its
    # coordinate, which puts its radius below the inner limit; the shard
    # opens a pair when either of its entries is open.
    # Whatever the screen settles, the float radii settle too: rounding
    # entries with radii below their inner limit, and certificate rows
    # whose squared radii sum to less than the limit `squared`.
    entries = np.arange(m * n)
    pair = np.where(entries < raw.size, entries, entries - raw.size)
    radius = uniforms_to_radii(raw.copy())[pair].reshape(m, n)
    settled = np.ones(m, dtype=bool)
    if not isinstance(screen, sep_module._Rounding):
        settled[sep_module._open_rows(raw, m, n, screen)] = False
        assert np.all(np.einsum("ij,ij->i", radius, radius)[settled] < squared)
        return settled
    entry_settled = (raw[pair] < screen.cut[entries % n]).reshape(m, n)
    assert np.all((radius < screen.inner)[entry_settled])
    return np.all(entry_settled, axis=1)


def _typical_rho(generator, cert, f):
    # An SNR that puts the screen's threshold at typical radii: a fraction
    # f of the one that settles about half the rows.
    n = generator.shape[0]
    if cert is None:
        # Every one of n radii below L: (1 - exp(-L**2 / 2))**n = 1/2.
        typical = -2.0 * math.log1p(-(0.5 ** (1.0 / n)))
        return f * typical / (0.5 * float(np.abs(np.diagonal(generator)).min())) ** 2
    return f * (2 * n - 2.0 / 3.0) / cert.inscribed  # median of a chi-square with 2n d.o.f.


def _assert_screen_is_sound(generator, big_k, method, seeds, dbs=None):
    # For each seed: an SNR from dbs in turn, or else a typical one (a
    # fraction f in [0.5, 1.5] of _typical_rho), and a shard of m rows, m
    # odd for odd seeds.  Every row the raw radial uniforms settle must be
    # correct on the full path, and the screened shard must count the full
    # path's errors.  At typical SNRs the screen settles some rows but not
    # all.
    n = generator.shape[0]
    decoder = BatchDecoder(generator, big_k, method)
    cert = None if sep_module._is_diagonal(generator) else sep_module._certificate(generator, big_k)
    for i, seed in enumerate(seeds):
        if dbs is None:
            rho = _typical_rho(generator, cert, 0.5 + (seed % 11) / 10.0)
        else:
            rho = 10.0 ** (dbs[i % len(dbs)] / 10.0)
        sigma = 1.0 / math.sqrt(rho)
        screen = sep_module._screen(generator, big_k, cert, rho)
        m = 600 + seed % 2
        rng = stream(seed, 4)
        rng.random(m * n)
        squared = None if cert is None else cert.inscribed * (1.0 - sep_module._SCREEN_MARGIN) * rho
        settled = _settled_rows(screen, rng.random((m * n + 1) // 2), m, n, squared)
        full = _full_path_errors(generator, big_k, decoder, cert, sigma, stream(seed, 4), m)
        assert not np.any(full & settled), seed
        if dbs is None:
            assert settled.any() and not settled.all(), seed
        buffers = sep_module._shard_buffers(m * n)
        screened = sep_module._shard_errors(generator, big_k, decoder, cert, screen, sigma, stream(seed, 4), m, buffers)
        assert screened == np.count_nonzero(full), seed


# Signed diagonals of unit volume, with three different entry limits.
_SIGNED_DIAGONALS = [[2.0, -0.5, 1.0], [-1.25, 0.8, -1.0]]


class TestEntryVerdicts:
    @pytest.mark.parametrize("db", [-30.0, 0.0, 12.0, 40.0])
    @pytest.mark.parametrize("big_k", [2, 5, 2**20])
    @pytest.mark.parametrize("diagonal", _SIGNED_DIAGONALS)
    def test_verdicts_match_decoding_the_row(self, diagonal, big_k, db):
        # Noise on one coordinate of a row, the others noiseless: at
        # +-|d_i| / 2 and a few ulps either side, 1e-6 either side, and
        # further off; symbol uniforms at the first, second, last and
        # next-to-last levels and just either side of the level edges
        # 1 / K and (K - 1) / K.  An entry the rule decides gets the verdict
        # that decoding the whole row gives; the ones at a tie are in the
        # band.
        g = np.diag(diagonal)
        n = g.shape[0]
        decoder = BatchDecoder(g, big_k, Decoder.SPHERE_DECODER)
        rho = 10.0 ** (db / 10.0)
        rule = sep_module._screen(g, big_k, None, rho)
        ulps = np.arange(-4, 5) * np.finfo(float).eps
        scales = np.concatenate([1.0 + ulps, [1.0 - 1e-6, 1.0 + 1e-6, 0.0, 0.6, 1.9, 3.1]])
        edges = [1.0 / big_k, (big_k - 1.0) / big_k]
        levels = [0.5, 1.5, big_k - 0.5, big_k - 1.5]
        w = np.array([*(v / big_k for v in levels), *(np.nextafter(e, t) for e in edges for t in (0.0, 1.0)), *edges])
        for i in range(n):
            e = np.outer(np.concatenate([scales, -scales]), [0.5 * abs(diagonal[i])]).reshape(-1)
            z = e * math.sqrt(rho)
            for uniform in w:
                u = np.zeros((z.size, n), dtype=np.int64)
                u[:, i] = uniforms_to_symbols(np.full(1, uniform), big_k)[0]
                noise = np.zeros((z.size, n))
                noise[:, i] = z * (1.0 / math.sqrt(rho))  # as the simulator forms it
                decoded = decoder.decode(u @ g.T + noise)
                full = np.any(decoded != u, axis=1)
                # z as the radius |z| at angle 0 or pi, where cos is exactly
                # +-1 in float32 and float64 alike, so the step sees z itself.
                radius, angle = np.abs(z), np.where(np.signbit(z), math.pi, 0.0)
                coordinate = np.full(z.size, i)
                beyond, up, band = sep_module._sides(rule, radius, angle, z.size, np.arange(z.size), coordinate)
                moved = sep_module._moved(up, np.full(z.size, uniform) * big_k, big_k)
                band = np.zeros(z.size, dtype=bool) if band is None else band
                tie = np.tile(np.abs(scales - 1.0) < 1e-12, 2)
                assert np.all(band[tie]), (i, uniform)
                decided = ~band
                assert np.array_equal((beyond & moved)[decided], full[decided]), (i, uniform)

    def test_single_precision_verdicts_match_the_exact_normals(self):
        # A random 2048 x 8 block on Z8, every third cosine entry placed
        # between 1e-10 and 1e-6 relative off one of its limits, where a
        # float32 normal may fall on the other side, or in the band: the
        # verdicts of the whole rows and of a random subset of entries equal
        # those of the exact normals.
        n, m, big_k = 8, 2048, 4
        count, pairs = m * n, m * n // 2
        rule = sep_module._screen(np.eye(n), big_k, None, 10.0**1.2)
        rng = np.random.default_rng(11)
        radius = uniforms_to_radii(rng.random(pairs))
        angle = rng.random(pairs) * (2.0 * math.pi)
        near = np.arange(0, pairs, 3)
        near = near[np.abs(np.cos(angle[near])) > 0.3]
        limit = np.where(rng.random(near.size) < 0.5, rule.inner[near % n], rule.outer[near % n])
        offset = rng.choice([-1.0, 1.0], near.size) * 10.0 ** rng.uniform(-10.0, -6.0, near.size)
        radius[near] = limit * (1.0 + offset) / np.abs(np.cos(angle[near]))
        coordinates = np.arange(count) % n
        z = normals_from_angles(radius, angle, count)
        beyond = np.abs(z) > rule.outer[coordinates]
        band = (np.abs(z) >= rule.inner[coordinates]) & ~beyond
        # The float32 normals alone would give some other verdicts.
        assert np.any((np.abs(coarse_normals(radius, angle, count)) > rule.outer[coordinates]) != beyond)
        entries = np.flatnonzero(rng.random(count) < 0.5)
        for step, coordinate in ((slice(0, count), slice(None)), (entries, entries % n)):
            got_beyond, got_up, got_band = sep_module._sides(rule, radius, angle, count, step, coordinate)
            assert np.array_equal(got_beyond.reshape(-1), beyond[step])
            assert np.array_equal(got_up.reshape(-1), z[step] > 0.0)
            assert np.array_equal(got_band.reshape(-1), band[step])


class _CountingGenerator:
    # A stream that counts the uniforms drawn from it, the few that a seek
    # discards included.
    def __init__(self, rng):
        self._rng, self.bit_generator, self.words = rng, rng.bit_generator, 0

    def random(self, size=None, out=None):
        values = self._rng.random(size, out=out)
        self.words += np.size(values)
        return values


class TestRadialScreen:
    @pytest.mark.parametrize(
        "name,big_k,method",
        [
            ("Z2", 4, Decoder.SPHERE_DECODER),
            ("Z3", 3, Decoder.SPHERE_DECODER),
            ("Z8", 4, Decoder.SPHERE_DECODER),
            ("Z3", 4, Decoder.BRUTE_FORCE),
            ("A2", 4, Decoder.BRUTE_FORCE),
            ("A2", 4, Decoder.SPHERE_DECODER),  # the radius query
            ("E4", 4, Decoder.BRUTE_FORCE),
            ("E4", 4, Decoder.SPHERE_DECODER),
            ("E8", 2, Decoder.BRUTE_FORCE),
        ],
    )
    def test_settled_rows_are_correct_on_catalog_lattices(self, name, big_k, method):
        _assert_screen_is_sound(catalog_lattice(name).generator, big_k, method, range(20))

    @given(matrix=_SQUARE_MATRICES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_settled_rows_are_correct_on_random_bases(self, matrix):
        g = _unit_volume_basis(matrix)
        _assert_screen_is_sound(g, 4, Decoder.BRUTE_FORCE, range(6))

    @pytest.mark.parametrize("big_k", [2, 5, 2**20])
    @pytest.mark.parametrize("diagonal", _SIGNED_DIAGONALS)
    def test_settled_rows_are_correct_on_signed_diagonals(self, diagonal, big_k):
        _assert_screen_is_sound(np.diag(diagonal), big_k, Decoder.SPHERE_DECODER, range(8))

    @pytest.mark.parametrize(
        "generator,big_k,method",
        [
            (np.diag(_SIGNED_DIAGONALS[0]), 5, Decoder.SPHERE_DECODER),  # rounding
            (catalog_lattice("Z8").generator, 4, Decoder.SPHERE_DECODER),
            (catalog_lattice("A2").generator, 4, Decoder.BRUTE_FORCE),  # the product screen
            (catalog_lattice("E4").generator, 4, Decoder.SPHERE_DECODER),
            (catalog_lattice("E8").generator, 2, Decoder.BRUTE_FORCE),
        ],
    )
    def test_extreme_snrs_settle_only_correct_rows(self, generator, big_k, method):
        # At -30 dB the raw uniforms settle nothing, at 40 dB nearly
        # everything; both screens stay sound, and both count the full
        # path's errors, at either end and in between.
        _assert_screen_is_sound(generator, big_k, method, range(6), dbs=[-30.0, 40.0, 5.0])

    def test_tail_bound_keeps_every_radius_that_reaches_its_limit(self):
        # Near the edge 1 - u = exp(-L**2 / 2), a few ulps either side: a
        # uniform whose float radius reaches L is never below the cut, and
        # one below the cut has a float radius below L.
        eps = np.finfo(float).eps
        for limit in np.linspace(0.05, 8.5, 400):
            cut = 1.0 - sep_module._tail_bound(limit**2)
            edge = -math.expm1(-0.5 * limit**2)
            u = edge + np.arange(-40, 41) * (eps / 2 if edge < 0.5 else eps / 4)
            u = u[(u >= 0.0) & (u < 1.0)]
            reaches = uniforms_to_radii(u.copy()) >= limit
            assert not np.any(reaches & (u < cut)), limit

    def test_the_last_pair_of_an_odd_block_has_no_sine(self):
        # Z3 with m odd: the last pair holds a cosine only.  Shards whose
        # last pair is open, at SNRs that screen the radial uniforms, count
        # the full path's errors; a sine read for it would lie past the
        # block.
        g = catalog_lattice("Z3").generator
        decoder = BatchDecoder(g, 4, Decoder.SPHERE_DECODER)
        m = 1001
        pairs = (3 * m + 1) // 2
        buffers = sep_module._shard_buffers(3 * m)
        checked = 0
        for seed in range(40):
            for db in (11.0, 12.0):
                rho = 10.0 ** (db / 10.0)
                screen = sep_module._screen(g, 4, None, rho)
                assert screen.share < sep_module._DENSE_SHARE
                rng = stream(seed, 9)
                rng.random(3 * m)
                if rng.random(pairs)[-1] < screen.cut.min():
                    continue
                checked += 1
                sigma = 1.0 / math.sqrt(rho)
                full = _full_path_errors(g, 4, decoder, None, sigma, stream(seed, 9), m)
                screened = sep_module._shard_errors(g, 4, decoder, None, screen, sigma, stream(seed, 9), m, buffers)
                assert screened == np.count_nonzero(full), (seed, db)
        assert checked >= 5

    def test_screened_batches_stay_within_a_row_block(self, monkeypatch):
        # Z8 at 12 dB opens about a seventh of a shard's pairs: they are
        # decided in batches of at most _ROW_BLOCK / 2 rows' pairs, so no
        # per-entry array exceeds _ROW_BLOCK n entries.
        sizes = []

        def recording(u):
            sizes.append(u.size)
            return uniforms_to_radii(u)

        monkeypatch.setattr(sep_module, "uniforms_to_radii", recording)
        g = catalog_lattice("Z8").generator
        rho = 10.0 ** 1.2
        screen = sep_module._screen(g, 4, None, rho)
        buffers = sep_module._shard_buffers(SHARD_SIZE * 8)
        decoder = sep_module._decoder(g, 4)
        sep_module._shard_errors(g, 4, decoder, None, screen, 1.0 / math.sqrt(rho), stream(4, 0, 0), SHARD_SIZE, buffers)
        assert sum(sizes) > 0.1 * SHARD_SIZE * 4
        assert max(sizes) <= sep_module._ROW_BLOCK * 8 // 2

    @pytest.mark.parametrize("db", [0.0, 14.0])
    def test_a_wide_band_sends_its_rows_to_the_decoder(self, monkeypatch, db):
        # A 5% margin widens the band between the entry limits from about
        # 1e-9 to about 10% of |d_i| / 2, so that many rows reach the
        # decoder, from a shard that forms every normal (0 dB) and from one
        # that screens its radial uniforms (14 dB); the counts stay the full
        # path's.
        monkeypatch.setattr(sep_module, "_SCREEN_MARGIN", 0.05)
        decoded = _count_decoded_rows(monkeypatch)
        g = np.diag(_SIGNED_DIAGONALS[0])
        decoder = BatchDecoder(g, 5, Decoder.SPHERE_DECODER)
        rho = 10.0 ** (db / 10.0)
        sigma = 1.0 / math.sqrt(rho)
        screen = sep_module._screen(g, 5, None, rho)
        assert (screen.share >= sep_module._DENSE_SHARE) is (db == 0.0)
        m = 3001
        full = _full_path_errors(g, 5, decoder, None, sigma, stream(8, 1), m)
        decoded[0] = 0
        buffers = sep_module._shard_buffers(3 * m)
        screened = sep_module._shard_errors(g, 5, decoder, None, screen, sigma, stream(8, 1), m, buffers)
        assert screened == np.count_nonzero(full)
        assert 50 < decoded[0] < m

    @pytest.mark.parametrize(
        "lattice,big_k",
        [
            (catalog_lattice("Z2"), 4),
            (catalog_lattice("Z8"), 4),
            (load_lattice(np.diag(_SIGNED_DIAGONALS[0]), name="diag3", normalize=False), 5),
        ],
    )
    def test_a_wide_coarse_slack_keeps_every_count(self, monkeypatch, lattice, big_k):
        # The entries are formed in single precision and formed again
        # exactly within _COARSE_SLACK of a limit.  Widened from 2**-14 to
        # 0.05, the slack sends many entries to the exact path, in the shards
        # that form every normal and in those that screen their radial
        # uniforms alike, and every point keeps its (trials, errors).
        plan = SimPlan(
            constellation=FiniteConstellation(lattice=lattice, K=big_k),
            grid=SnrGrid.from_db_values([0.0, 4.0, 8.0, 12.0, 16.0]),
            seed=3,
            max_trials=20000,
            target_errors=10**9,
        )
        default = [(e.trials, e.errors_observed) for e in simulate_sep(plan)]
        exact = []

        def counting(radius, angle, count, entries=None):
            exact.append(count if entries is None else np.arange(count)[entries].size)
            return normals_from_angles(radius, angle, count, entries)

        monkeypatch.setattr(sep_module, "normals_from_angles", counting)
        formed, narrow = {}, sep_module._COARSE_SLACK
        for slack in (narrow, 0.05):
            monkeypatch.setattr(sep_module, "_COARSE_SLACK", slack)
            for share in (0.0, 2.0):  # every shard forms every normal, or none does
                monkeypatch.setattr(sep_module, "_DENSE_SHARE", share)
                exact.clear()
                assert [(e.trials, e.errors_observed) for e in simulate_sep(plan)] == default, (slack, share)
                formed[slack, share] = sum(exact)
        for share in (0.0, 2.0):
            assert formed[0.05, share] > 100 * (1 + formed[narrow, share]), formed

    @pytest.mark.parametrize(
        "name,big_k,method",
        [("Z3", 4, Decoder.SPHERE_DECODER), ("A2", 4, Decoder.BRUTE_FORCE), ("E4", 4, Decoder.BRUTE_FORCE)],
    )
    def test_small_row_blocks_count_the_full_path_errors(self, monkeypatch, name, big_k, method):
        # Blocks of 7 rows: shards of 600 and 601 rows end in short and
        # lone-row blocks.
        monkeypatch.setattr(sep_module, "_ROW_BLOCK", 7)
        _assert_screen_is_sound(catalog_lattice(name).generator, big_k, method, range(6))

    @pytest.mark.parametrize(
        "name,big_k,m,dbs",
        [
            ("Z3", 4, 10001, [17.0, 0.0]),  # rounding; m n odd
            ("Z8", 4, SHARD_SIZE, [18.0, 11.0, 0.0]),  # rounding; 11 dB is screened, with most chunks read
            ("E4", 4, 20000, [18.0, 8.0]),  # the 256-point table
            ("A2", 5, 4465, [18.0, 0.0]),  # the 25-point table; a partial last shard
            ("E8", 3, 2000, [19.0, 16.0, 10.0]),  # the radius query
        ],
    )
    def test_sparse_and_dense_shards_count_the_full_path_errors(self, name, big_k, m, dbs):
        # With a certificate, the first SNR leaves fewer than two rows open
        # per 1024 symbol words, so the shard reads only the chunks of symbol
        # and angle words that hold them; the last leaves a row range at
        # least 90% open, which is transformed whole.  Rounding screens the
        # radial uniforms at the first SNR, where a few pairs are open, and
        # forms every normal at the last.
        g = catalog_lattice(name).generator
        n = g.shape[0]
        decoder = sep_module._decoder(g, big_k)
        cert = None if sep_module._is_diagonal(g) else sep_module._certificate(g, big_k)
        buffers = sep_module._shard_buffers(m * n)
        for i, db in enumerate(dbs):
            rho = 10.0 ** (db / 10.0)
            sigma = 1.0 / math.sqrt(rho)
            screen = sep_module._screen(g, big_k, cert, rho)
            rng = stream(2, 0, 0)
            rng.random(m * n)
            raw = rng.random((m * n + 1) // 2)
            if cert is None:
                opened = np.count_nonzero(~_settled_rows(screen, raw, m, n))
                if i == 0:
                    assert 0 < opened * sep_module._SEEK_CHUNK < sep_module._SPARSE_OPEN * m * n
                    assert screen.share < sep_module._DENSE_SHARE
                if i == len(dbs) - 1:
                    assert opened >= sep_module._DENSE_RANGE * min(m, sep_module._ROW_BLOCK)
                    assert screen.share >= sep_module._DENSE_SHARE
            else:
                rows = sep_module._open_rows(raw, m, n, screen)
                if i == 0:
                    assert 0 < rows.size * sep_module._SEEK_CHUNK < sep_module._SPARSE_OPEN * m * n
                if i == len(dbs) - 1:
                    assert rows.size >= sep_module._DENSE_RANGE * min(m, sep_module._ROW_BLOCK)
            full = _full_path_errors(g, big_k, decoder, cert, sigma, stream(2, 0, 0), m)
            screened = sep_module._shard_errors(g, big_k, decoder, cert, screen, sigma, stream(2, 0, 0), m, buffers)
            assert screened == np.count_nonzero(full), db

    @pytest.mark.parametrize("m,n", [(3391, 3), (2000, 8), (1500, 5), (777, 7)])
    def test_open_rows_read_exactly_their_words(self, m, n):
        # The rows across every 1024-word chunk edge of the symbol and angle
        # words, and across the cosine/sine split, together and one at a
        # time, read into buffers of NaN: their symbol uniforms and normals
        # are the front-to-back ones.
        count = m * n
        rng = stream(3, m, n)
        whole = rng.random(count)
        radius = normal_radii(rng, count)
        pairs = radius.size
        normals = normals_from_angles(radius, normal_angles(rng, pairs), count)
        chunk = sep_module._SEEK_CHUNK
        edges = [*range(chunk, count, chunk), pairs, *range(pairs + chunk, count, chunk)]
        rows = np.unique([t // n for b in edges for t in (b - 1, b) if t < count])
        for picked in [rows, rows[::2], *rows[:, None]]:
            uniforms, angle = np.full(count, np.nan), np.full(pairs, np.nan)
            rng = stream(3, m, n)
            origin = rng.bit_generator.state
            entries = (picked[:, None] * n + np.arange(n)).reshape(-1)
            pair = np.where(entries < pairs, entries, entries - pairs)
            sep_module._read_chunks(rng, origin, 0, uniforms, sep_module._draw_uniforms, entries)
            sep_module._read_chunks(rng, origin, count + pairs, angle, normal_angles, pair)
            assert np.array_equal(uniforms[entries], whole[entries])
            assert np.array_equal(normals_from_angles(radius, angle, count, entries), normals[entries])

    def test_a_sparse_shard_reads_its_open_rows_front_to_back(self):
        # E4 K = 4 at 18 dB leaves fewer than two rows open per 1024 symbol
        # words, so the shard reads only the chunks of symbol and angle
        # words that hold them, here into buffers of NaN: every open row's
        # symbol uniforms, radii and angles are the front-to-back ones.
        g = catalog_lattice("E4").generator
        m, n = 20000, 4
        count, pairs = m * n, m * n // 2
        rng = stream(2, 0, 0)
        whole = rng.random(count)
        raw = rng.random(pairs)
        angles = normal_angles(rng, pairs)
        rho = 10.0 ** 1.8
        cert = sep_module._certificate(g, 4)
        screen = sep_module._screen(g, 4, cert, rho)
        rows = sep_module._open_rows(raw, m, n, screen)
        assert 0 < rows.size * sep_module._SEEK_CHUNK < sep_module._SPARSE_OPEN * count
        buffers = sep_module._shard_buffers(count)
        for buffer in buffers:
            buffer.fill(np.nan)
        decoder = sep_module._decoder(g, 4)
        sep_module._shard_errors(g, 4, decoder, cert, screen, 1.0 / math.sqrt(rho), stream(2, 0, 0), m, buffers)
        uniforms, radius, angle = buffers
        entries = (rows[:, None] * n + np.arange(n)).reshape(-1)
        pair = np.where(entries < pairs, entries, entries - pairs)
        assert np.array_equal(uniforms[entries], whole[entries])
        assert np.array_equal(radius[pair], uniforms_to_radii(raw.copy())[pair])
        assert np.array_equal(angle[pair], angles[pair])

    def test_a_shard_reads_only_the_words_its_open_rows_use(self):
        # Z8 K = 4, one whole shard: its layout is m n symbol words, then
        # `pairs` radii, then `pairs` angles.  At 24 dB no row is open, and
        # the shard reads its radii alone, a quarter of its words; at 20 dB
        # a few rows are open, and it reads under 1% more; at 0 dB every
        # row is open, and it reads every word once.
        g = catalog_lattice("Z8").generator
        m, n = SHARD_SIZE, 8
        pairs = m * n // 2
        decoder = sep_module._decoder(g, 4)
        buffers = sep_module._shard_buffers(m * n)
        words = {}
        for db in (24.0, 20.0, 0.0):
            rho = 10.0 ** (db / 10.0)
            rng = _CountingGenerator(stream(1, 0, 0))
            screen = sep_module._screen(g, 4, None, rho)
            sep_module._shard_errors(g, 4, decoder, None, screen, 1.0 / math.sqrt(rho), rng, m, buffers)
            words[db] = rng.words
        total = m * n + 2 * pairs
        assert words[24.0] == pairs == total // 4
        assert pairs < words[20.0] < pairs + 0.01 * total
        assert words[0.0] == total

    def test_two_threads_draw_into_their_own_buffers(self, monkeypatch):
        # Points run at once, each worker on its own buffers: two threads
        # count what one thread does, and a call allocates one buffer set
        # per worker (one at one thread, two at two).
        made = []
        original = sep_module._shard_buffers

        def counting(entries):
            made.append(entries)
            return original(entries)

        monkeypatch.setattr(sep_module, "_shard_buffers", counting)
        c = FiniteConstellation(lattice=catalog_lattice("E4"), K=4)
        plan = SimPlan(
            constellation=c,
            grid=SnrGrid.from_db_values([9.0, 11.0]),
            seed=5,
            max_trials=4 * SHARD_SIZE,
            target_errors=10**9,
        )
        one = [(e.trials, e.errors_observed) for e in simulate_sep(plan, threads=1)]
        two = [(e.trials, e.errors_observed) for e in simulate_sep(plan, threads=2)]
        assert one == two
        assert made == [SHARD_SIZE * 4] * 3

    @pytest.mark.parametrize("threads,points,sets", [(4, 1, 1), (4, 3, 3), (2, 3, 2)])
    def test_buffer_sets_are_capped_by_the_grid_points(self, monkeypatch, threads, points, sets):
        # A call runs min(threads, points) workers, each with one buffer
        # set however many shards its points run (three each here, the last
        # one partial), so it allocates that many sets.
        made = []
        original = sep_module._shard_buffers

        def counting(entries):
            made.append(entries)
            return original(entries)

        monkeypatch.setattr(sep_module, "_shard_buffers", counting)
        c = FiniteConstellation(lattice=catalog_lattice("Z2"), K=4)
        max_trials = 2 * SHARD_SIZE + 1
        plan = SimPlan(
            constellation=c,
            grid=SnrGrid.from_db_values([20.0 + p for p in range(points)]),
            seed=5,
            max_trials=max_trials,
            target_errors=10**9,
        )
        curve = simulate_sep(plan, threads=threads)
        assert [e.trials for e in curve] == [max_trials] * points
        assert made == [SHARD_SIZE * 2] * sets
