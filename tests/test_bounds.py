"""Sphere-bound values, orderings, limits, and the curve CSV format."""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticesep.bounds import (
    Curve,
    SepMethod,
    SnrGrid,
    curve_csv_rows,
    format_sig,
    mslb,
    msub,
    slb,
    sub,
    write_curve_csv,
)
from latticesep.constellation import FiniteConstellation, facet_weights
from latticesep.lattices import catalog_lattice, load_lattice
from latticesep.sep import JSource, SimPlan, exact_sep_theorem1, simulate_sep


def _grid(*db):
    return SnrGrid.from_db_values(list(db))


def _const(name, big_k):
    return FiniteConstellation(catalog_lattice(name), big_k)


class TestSnrGrid:
    def test_from_db_inclusive(self):
        grid = SnrGrid.from_db(0.0, 30.0, 0.25)
        assert len(grid) == 121
        assert grid.db[0] == 0.0
        assert grid.db[-1] == pytest.approx(30.0, abs=1e-12)
        assert grid.rho[0] == 1.0
        assert grid.rho[-1] == pytest.approx(1000.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SnrGrid.from_db_values([3.0, 2.0])
        with pytest.raises(ValueError):
            SnrGrid.from_db_values([1.0, 1.0])
        with pytest.raises(ValueError):
            SnrGrid.from_db_values([])
        with pytest.raises(ValueError):
            SnrGrid.from_db(5.0, 1.0)
        with pytest.raises(ValueError):
            SnrGrid.from_db(0.0, 10.0, -1.0)
        with pytest.raises(ValueError, match="positive"):
            SnrGrid.from_db_values([-4000.0])  # rho underflows to 0
        # rho is derived from db, so a grid cannot label one SNR with another.
        with pytest.raises(TypeError):
            SnrGrid(db=np.array([0.0, 10.0]), rho=np.array([5.0, 7.0]))
        # A list is accepted, and the caller's array stays writable.
        assert SnrGrid(db=[0.0, 10.0]).rho.tolist() == [1.0, 10.0]
        db = np.array([0.0, 10.0])
        grid = SnrGrid(db=db)
        assert db.flags.writeable and not grid.db.flags.writeable and not grid.rho.flags.writeable
        db[0] = -5.0
        assert grid.db.tolist() == [0.0, 10.0]


class TestSingleSphereBounds:
    def test_slb_z2_frozen(self):
        # N = 2: Q(1, rho/(2 pi)) = exp(-5/pi) at rho = 10.
        curve = slb(catalog_lattice("Z2"), _grid(10.0))
        assert curve.values[0] == pytest.approx(math.exp(-5.0 / math.pi), rel=1e-12)

    def test_slb_z1_frozen(self):
        # N = 1: Q(1/2, rho/8) = erfc(sqrt(rho/8)) at rho = 4.
        curve = slb(catalog_lattice("Z1"), _grid(10.0 * math.log10(4.0)))
        assert curve.values[0] == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-12)

    def test_sub_z2_frozen(self):
        # d_min = 1: Q(1, rho/8) = exp(-1.25) at rho = 10.
        curve = sub(catalog_lattice("Z2"), _grid(10.0))
        assert curve.values[0] == pytest.approx(math.exp(-1.25), rel=1e-12)

    def test_sub_e8_argument(self):
        # d_min**2 = 2, so the tail argument is rho/4 in 8 dimensions.
        grid = _grid(0.0, 6.0, 12.0)
        curve = sub(catalog_lattice("E8"), grid)
        expected = scipy.special.gammaincc(4.0, grid.rho / 4.0)
        assert np.allclose(curve.values, expected, rtol=1e-12)

    def test_slb_below_sub(self):
        # Lower bound below upper bound for every catalog lattice.
        grid = SnrGrid.from_db(0.0, 24.0, 1.0)
        for name in ("Z2", "Z4", "A2", "E4", "E8"):
            lat = catalog_lattice(name)
            assert np.all(slb(lat, grid).values <= sub(lat, grid).values + 1e-15)

    def test_labels(self):
        curve = slb(catalog_lattice("A2"), _grid(10.0, 20.0))
        assert all(est.method is SepMethod.SLB for est in curve)
        rows = curve_csv_rows(curve, _const("A2", 4))
        assert all(row.endswith(",slb,A2,") for row in rows[1:])


class TestFacetWeights:
    def test_sums_to_one(self):
        for n in (1, 2, 8, 16):
            for big_k in (2, 4, 32, 128):
                assert facet_weights(n, big_k).sum() == pytest.approx(1.0, abs=1e-14)

    def test_matches_exact_fractions(self):
        for n in (1, 3, 8):
            for big_k in (2, 5, 32):
                w = facet_weights(n, big_k)
                for k in range(n + 1):
                    exact = Fraction(math.comb(n, k) * (big_k - 1) ** k, big_k**n)
                    assert w[k] == pytest.approx(float(exact), rel=1e-13)

    def test_correctly_rounded(self):
        # Each weight is its exact fraction rounded once, also for K that
        # is not a power of two.
        for n in range(1, 17):
            for big_k in (3, 5, 6):
                expected = [
                    float(Fraction(math.comb(n, k) * (big_k - 1) ** k, big_k**n))
                    for k in range(n + 1)
                ]
                assert facet_weights(n, big_k).tolist() == expected, (n, big_k)

    @given(n=st.integers(1, 16), big_k=st.integers(2, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_weights_property(self, n, big_k):
        w = facet_weights(n, big_k)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestMultiSphereBounds:
    def test_mslb_z2_4pam_frozen(self):
        # 1 - [1 + 6 (1 - erfc(sqrt(1.25))) + 9 (1 - exp(-5/pi))] / 16
        expected = 1.0 - (
            1.0
            + 6.0 * (1.0 - math.erfc(math.sqrt(1.25)))
            + 9.0 * (1.0 - math.exp(-5.0 / math.pi))
        ) / 16.0
        curve = mslb(_const("Z2", 4), _grid(10.0))
        assert curve.values[0] == pytest.approx(expected, rel=1e-12)
        assert curve.values[0] == pytest.approx(0.1572, abs=5e-4)

    def test_msub_z2_4pam_frozen(self):
        # 1 - [1 + 6 (1 - erfc(sqrt(1.25))) + 9 (1 - exp(-1.25))] / 16
        expected = 1.0 - (
            1.0
            + 6.0 * (1.0 - math.erfc(math.sqrt(1.25)))
            + 9.0 * (1.0 - math.exp(-1.25))
        ) / 16.0
        curve = msub(_const("Z2", 4), _grid(10.0))
        assert curve.values[0] == pytest.approx(expected, rel=1e-12)
        assert curve.values[0] == pytest.approx(0.20385, abs=5e-5)

    def test_low_snr_limit(self):
        # As rho -> 0 every sphere fills: P -> 1 - 1/K^N.
        grid = _grid(-300.0)
        for name, big_k in (("Z2", 4), ("A2", 4), ("E4", 2), ("Z2", 32)):
            c = _const(name, big_k)
            limit = 1.0 - 1.0 / c.size
            assert mslb(c, grid).values[0] == pytest.approx(limit, abs=1e-9)
            assert msub(c, grid).values[0] == pytest.approx(limit, abs=1e-9)

    def test_high_snr_limit(self):
        grid = _grid(40.0)
        assert mslb(_const("Z2", 4), grid).values[0] < 1e-12
        assert msub(_const("Z2", 4), grid).values[0] < 1e-12

    @pytest.mark.parametrize(
        "name,big_k", [("Z2", 4), ("Z2", 32), ("Z4", 4), ("A2", 4), ("E4", 4), ("E8", 4)]
    )
    def test_sandwich_and_monotonicity(self, name, big_k):
        grid = SnrGrid.from_db(0.0, 24.0, 1.0)
        c = _const(name, big_k)
        lower = mslb(c, grid).values
        upper = msub(c, grid).values
        assert np.all(lower <= upper + 1e-15)
        assert np.all((lower >= 0.0) & (upper <= 1.0))
        assert np.all(np.diff(lower) <= 1e-15)
        assert np.all(np.diff(upper) <= 1e-15)

    def test_mslb_equals_msub_in_one_dimension(self):
        # For Z^1 the volume-matched and inscribed spheres are the same
        # interval [-1/2, 1/2], so the two bounds coincide everywhere.
        grid = SnrGrid.from_db(0.0, 20.0, 2.0)
        c = _const("Z1", 4)
        assert np.allclose(mslb(c, grid).values, msub(c, grid).values, rtol=1e-14)

    def test_zn_gap_comes_from_full_dimension_only(self):
        # For Z^N with k < N the spheres coincide (W = d_min = 1); the whole
        # mslb - msub gap is the k = N facet weight times the difference of
        # the two full-dimensional sphere tails.
        rho = 10.0
        w = facet_weights(2, 4)
        expected_gap = w[2] * (math.exp(-rho / (2.0 * math.pi)) - math.exp(-rho / 8.0))
        grid = _grid(10.0)
        c = _const("Z2", 4)
        gap = mslb(c, grid).values[0] - msub(c, grid).values[0]
        assert gap == pytest.approx(expected_gap, rel=1e-12)
        assert gap < 0.0

    def test_convergence_toward_single_sphere(self):
        # |mslb - slb| and |msub - sub| shrink as K grows (rho = 14 dB).
        grid = _grid(14.0)
        lat = catalog_lattice("Z2")
        slb_val = slb(lat, grid).values[0]
        sub_val = sub(lat, grid).values[0]
        mslb_gaps = [abs(mslb(_const("Z2", k), grid).values[0] - slb_val) for k in (4, 8, 32, 128)]
        msub_gaps = [abs(msub(_const("Z2", k), grid).values[0] - sub_val) for k in (4, 8, 32, 128)]
        assert all(a > b for a, b in zip(mslb_gaps, mslb_gaps[1:]))
        assert all(a > b for a, b in zip(msub_gaps, msub_gaps[1:]))


class TestUserLatticeBounds:
    def test_msub_above_simulation_on_unreduced_basis(self):
        # v2 - v1 is much shorter than either basis vector; an MSUB built
        # from the shortest basis vector falls two decades below the SEP.
        c = FiniteConstellation(load_lattice([[1.0, 0.9], [0.0, 0.5]]), 4)
        grid = _grid(18.0)
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=10**5, target_errors=10**9)
        est = simulate_sep(plan)[0]
        assert est.reliable
        assert est.mean - 3.0 * est.ci_half_width / 1.96 <= msub(c, grid).values[0]

    @given(
        matrix=st.integers(2, 3).flatmap(
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
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_msub_above_simulation_on_random_bases(self, matrix):
        # MSLB is not checked: its W depends on the basis, and on skewed
        # bases it can exceed the simulated SEP.
        m = np.array(matrix)
        norms = np.linalg.norm(m, axis=0)
        assume(np.all(norms > 0.1) and abs(np.linalg.det(m)) >= 0.05 * np.prod(norms))
        c = FiniteConstellation(load_lattice(m), 4)
        grid = _grid(0.0, 6.0, 12.0, 18.0)
        plan = SimPlan(constellation=c, grid=grid, seed=1, max_trials=10**4, target_errors=50)
        for est, upper in zip(simulate_sep(plan), msub(c, grid).values):
            assert est.mean - 3.0 * est.ci_half_width / 1.96 <= upper


_CURVE_FUNCTIONS = {
    SepMethod.SLB: lambda c, grid: slb(c.lattice, grid),
    SepMethod.SUB: lambda c, grid: sub(c.lattice, grid),
    SepMethod.MSLB: mslb,
    SepMethod.MSUB: msub,
    SepMethod.CLOSED_FORM_ZN: lambda c, grid: exact_sep_theorem1(c, grid, JSource.ANALYTIC_ZN),
    SepMethod.THEOREM1: lambda c, grid: exact_sep_theorem1(
        c, grid, JSource.MC_VORONOI, trials_per_j=10**4
    ),
    SepMethod.DIRECT_MC: lambda c, grid: simulate_sep(
        SimPlan(constellation=c, grid=grid, seed=1, max_trials=10**4, target_errors=50)
    ),
}


@pytest.mark.parametrize("method", list(_CURVE_FUNCTIONS), ids=lambda m: m.value)
def test_every_curve_function_returns_a_curve(method):
    grid = _grid(0.0, 6.0, 12.0)
    curve = _CURVE_FUNCTIONS[method](_const("Z2", 4), grid)
    assert type(curve) is Curve
    assert len(curve) == len(grid)
    assert [est.method for est in curve] == [method] * len(grid)
    assert [est.snr_db for est in curve] == grid.db.tolist()
    assert curve.values.tolist() == [est.mean for est in curve]


class TestCurveCsv:
    def test_format(self):
        curve = mslb(_const("Z2", 4), _grid(0.0, 10.0))
        rows = curve_csv_rows(curve, _const("Z2", 4))
        assert rows[0] == "snr_db,value,kind,lattice,K"
        parsed = list(csv.reader(io.StringIO("\n".join(rows))))
        assert parsed[1][2:] == ["mslb", "Z2", "4"]
        assert float(parsed[1][0]) == 0.0
        assert float(parsed[2][1]) == pytest.approx(
            mslb(_const("Z2", 4), _grid(10.0)).values[0], rel=1e-11
        )

    def test_k_empty_for_single_sphere(self):
        rows = curve_csv_rows(slb(catalog_lattice("Z2"), _grid(10.0)), _const("Z2", 4))
        assert rows[1].endswith(",slb,Z2,")
        rows = curve_csv_rows(sub(catalog_lattice("Z2"), _grid(10.0)), _const("Z2", 4))
        assert rows[1].endswith(",sub,Z2,")

    def test_twelve_significant_digits(self):
        assert format_sig(0.1572229236094219) == "0.157222923609"
        assert format_sig(10.0) == "10"
        assert format_sig(1.23456789012345e-07) == "1.23456789012e-07"

    def test_write_round_trip(self, tmp_path):
        curve = msub(_const("A2", 4), SnrGrid.from_db(0.0, 4.0, 1.0))
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path, _const("A2", 4))
        text = path.read_text()
        assert text.startswith("snr_db,value,kind,lattice,K\n")
        assert text.count("\n") == 6
        again = [row.split(",") for row in text.strip().split("\n")[1:]]
        values = np.array([float(r[1]) for r in again])
        assert np.allclose(values, curve.values, rtol=1e-11)
