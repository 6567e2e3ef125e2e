"""Closest-point search: sphere decoder, brute-force reference, enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticesep import BudgetError
from latticesep.cvp import (
    BatchDecoder,
    Decoder,
    closest_point,
    enumerate_within_radius,
    shortest_vector_norm,
    voronoi_test_vectors,
)
from latticesep.lattices import catalog_lattice, load_lattice


class TestClosestPoint:
    def test_unconstrained_rounding_case(self):
        z = closest_point(np.eye(2), [0.4, -0.3])
        assert z.tolist() == [0, 0]

    def test_box_clamps_outside_target(self):
        z = closest_point(np.eye(2), [3.6, 0.2], box=4)
        assert z.tolist() == [3, 0]
        z = closest_point(np.eye(2), [-5.0, 9.0], box=4)
        assert z.tolist() == [0, 3]

    def test_tie_resolves_lexicographically(self):
        # (0.5, 0.5) is equidistant from four points; smallest coordinates win.
        z = closest_point(np.eye(2), [0.5, 0.5], box=4)
        assert z.tolist() == [0, 0]
        z = closest_point(np.eye(2), [0.5, 0.5], box=4, method=Decoder.BRUTE_FORCE)
        assert z.tolist() == [0, 0]
        z = closest_point(np.eye(2), [0.5, 0.5])
        assert z.tolist() == [0, 0]

    def test_unconstrained_negative_coefficients(self):
        z = closest_point(np.eye(3), [-2.2, 5.9, -0.4])
        assert z.tolist() == [-2, 6, 0]

    @pytest.mark.parametrize("name", ["Z2", "Z4", "A2", "E4"])
    def test_sphere_matches_brute_force(self, name):
        lat = catalog_lattice(name)
        n = lat.dimension
        rng = np.random.default_rng(20240817)
        coords, points = _constellation(lat, 4)
        for _ in range(400):
            idx = rng.integers(len(points))
            y = points[idx] + rng.normal(scale=0.6, size=n)
            a = closest_point(lat.generator, y, box=4)
            b = closest_point(lat.generator, y, box=4, method=Decoder.BRUTE_FORCE)
            assert a.tolist() == b.tolist(), f"{name}: {y}"

    def test_noiseless_points_decode_to_themselves(self):
        lat = catalog_lattice("E4")
        coords, points = _constellation(lat, 4)
        for u, x in zip(coords, points):
            z = closest_point(lat.generator, x, box=4)
            assert z.tolist() == u.tolist()

    def test_ill_conditioned_unbounded_rejected(self):
        g = np.diag([1.0, 1e-9])
        with pytest.raises(ValueError, match="condition"):
            closest_point(g, [0.3, 0.0])
        # The same generator is fine with a box.
        z = closest_point(g, [0.3, 0.0], box=2)
        assert z.tolist() == [0, 0]

    def test_brute_force_requires_box(self):
        with pytest.raises(ValueError):
            closest_point(np.eye(2), [0.1, 0.1], method=Decoder.BRUTE_FORCE)

    def test_brute_force_budget(self):
        with pytest.raises(BudgetError):
            closest_point(np.eye(2), [0.1, 0.1], box=8192, method=Decoder.BRUTE_FORCE)

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError):
            closest_point([[1.0, 1.0], [0.0, 0.0]], [0.1, 0.1], box=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            closest_point(np.eye(2), [0.1, 0.2, 0.3])


class TestEnumerateWithinRadius:
    def test_z2_unit_radius(self):
        found = enumerate_within_radius(np.eye(2), 1.0)
        vectors = sorted(z for z, _ in found)
        assert vectors == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_z2_sqrt2_radius(self):
        found = enumerate_within_radius(np.eye(2), math.sqrt(2.0) + 1e-9)
        assert len(found) == 9

    def test_off_center(self):
        found = enumerate_within_radius(np.eye(2), 0.6, center=[1.9, -0.1])
        assert sorted(z for z, _ in found) == [(2, 0)]

    def test_distances_are_exact(self):
        g = catalog_lattice("A2").generator
        for z, dist_sq in enumerate_within_radius(g, 1.5):
            x = g @ np.array(z, dtype=float)
            assert dist_sq == pytest.approx(float(x @ x), abs=1e-12)

    def test_node_budget(self):
        with pytest.raises(BudgetError):
            enumerate_within_radius(np.eye(2), 1e4, max_nodes=1000)

    def test_node_budget_is_checked_before_a_level_is_listed(self):
        # The last coordinate's window holds about 1.3e12 values: the
        # budget must refuse it before its candidate list is built.
        with pytest.raises(BudgetError):
            enumerate_within_radius(np.array([[1.0, 1.0], [0.0, 1.5e-12]]), 1.0)
        with pytest.raises(BudgetError):
            load_lattice([[1.0, 1.0], [0.0, 1.5e-12]])


# Random square bases of side 2 or 3 with entries in [-2, 2].
_BASES = st.integers(2, 3).flatmap(
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


def _unit_volume(matrix):
    m = np.array(matrix)
    norms = np.linalg.norm(m, axis=0)
    assume(np.all(norms > 0.1) and abs(np.linalg.det(m)) >= 0.05 * np.prod(norms))
    return m / abs(np.linalg.det(m)) ** (1.0 / m.shape[0])


class TestSearchOnRandomBases:
    @given(
        matrix=_BASES,
        radius=st.floats(0.0, 2.0),
        shift=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_enumeration_matches_box_scan(self, matrix, radius, shift):
        g = _unit_volume(matrix)
        center = np.array(shift[: g.shape[0]])
        found = dict(enumerate_within_radius(g, radius, center))
        # ||G z - c|| <= r implies |z_i - (G^-1 c)_i| <= r ||row i of G^-1||.
        inv = np.linalg.inv(g)
        reach = radius * np.linalg.norm(inv, axis=1)
        box = [range(math.floor(m - h), math.ceil(m + h) + 1) for m, h in zip(inv @ center, reach)]
        scanned = set(itertools.product(*box))
        assert set(found) <= scanned
        for z in scanned:
            dist_sq = float(np.sum((g @ np.array(z, dtype=float) - center) ** 2))
            if dist_sq <= radius**2 - 1e-9:
                assert z in found
            elif dist_sq > radius**2 + 1e-9:
                assert z not in found
            if z in found:
                assert found[z] == pytest.approx(dist_sq, abs=1e-9)

    @given(
        matrix=_BASES,
        coords=st.lists(st.integers(0, 3), min_size=3, max_size=3),
        step=st.lists(st.integers(-1, 1), min_size=3, max_size=3),
        noise=st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_closest_point_matches_brute_force(self, matrix, coords, step, noise):
        g = _unit_volume(matrix)
        n = g.shape[0]
        a = np.array(coords[:n], dtype=float)
        # The midpoint of a and a neighbour is a distance tie between them.
        for y in (g @ (a + np.array(step[:n]) / 2.0), g @ (a + np.array(noise[:n]))):
            sphere = closest_point(g, y, box=4)
            brute = closest_point(g, y, box=4, method=Decoder.BRUTE_FORCE)
            assert np.array_equal(sphere, brute)

    @given(
        matrix=_BASES,
        target=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unbounded_closest_point_matches_enumeration(self, matrix, target):
        g = _unit_volume(matrix)
        y = np.array(target[: g.shape[0]])
        z = closest_point(g, y)
        dist_sq = float(np.sum((g @ z - y) ** 2))
        # Every lattice point within the found distance, the found one included.
        found = enumerate_within_radius(g, math.sqrt(dist_sq) + 1e-9, y)
        best = min(d for _, d in found)
        assert tuple(z) in dict(found)
        assert dist_sq <= best + 1e-9
        # Ties within 1e-12 resolve to the lexicographically smallest vector.
        assert tuple(z) == min(v for v, d in found if d <= best + 1e-12)


class TestShortestVector:
    def test_anisotropic_diagonal(self):
        assert shortest_vector_norm(np.diag([3.0, 1.0 / 3.0])) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_skewed_basis(self):
        assert shortest_vector_norm(np.array([[2.0, 1.9], [0.0, 0.5]])) == pytest.approx(
            math.sqrt(0.26), rel=1e-12
        )

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Z4", 1.0),
            ("A2", math.sqrt(2.0 / math.sqrt(3.0))),
            ("E4", 2.0 / 8.0**0.25),
            ("E8", math.sqrt(2.0)),
        ],
    )
    def test_catalog(self, name, expected):
        lat = catalog_lattice(name)
        assert shortest_vector_norm(lat.generator) == pytest.approx(expected, abs=1e-9)


class TestVoronoiTestVectors:
    def test_z2_vectors(self):
        v = voronoi_test_vectors(np.eye(2))
        got = sorted(map(tuple, v.tolist()))
        expected = sorted(
            [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, -1.0), (0.0, 1.0),
             (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]
        )
        assert got == expected

    def test_a2_is_hexagonal(self):
        lat = catalog_lattice("A2")
        v = voronoi_test_vectors(lat.generator)
        assert len(v) == 6
        assert np.allclose(np.linalg.norm(v, axis=1), lat.d_min, atol=1e-9)

    @pytest.mark.parametrize("name,k", [("Z2", 2), ("Z3", 3), ("A2", 2), ("E4", 4)])
    def test_membership_agrees_with_decoding(self, name, k):
        # The half-space test must reproduce "the origin is a closest lattice
        # point" exactly, decided here by the sphere decoder.
        lat = catalog_lattice(name)
        g = lat.generator
        v = voronoi_test_vectors(g)
        half_norms = 0.5 * np.sum(v * v, axis=1)
        rng = np.random.default_rng(7)
        samples = rng.normal(scale=0.7, size=(500, k))
        inside_test = np.all(samples @ v.T <= half_norms + 1e-12, axis=1)
        for x, inside in zip(samples, inside_test):
            z = closest_point(g, x)
            d_best = float(np.sum((g @ z - x) ** 2))
            d_origin = float(x @ x)
            assert inside == (d_origin <= d_best + 1e-12), x

    def test_all_vectors_are_lattice_vectors(self):
        g = catalog_lattice("E4").generator
        v = voronoi_test_vectors(g)
        coeffs = np.linalg.solve(g, v.T).T
        assert np.allclose(coeffs, np.round(coeffs), atol=1e-9)
        assert not np.any(np.all(np.abs(coeffs) < 0.5, axis=1))  # no zero vector


def _constellation(lat, box):
    import itertools

    coords = np.array(
        list(itertools.product(range(box), repeat=lat.dimension)), dtype=np.int64
    )
    return coords, coords.astype(float) @ lat.generator.T


class TestBatchDecoder:
    @pytest.mark.parametrize("name", ["Z2", "A2", "E4"])
    @pytest.mark.parametrize("method", [Decoder.BRUTE_FORCE, Decoder.SPHERE_DECODER])
    def test_matches_single_point_decoding(self, name, method):
        lat = catalog_lattice(name)
        g = lat.generator
        decoder = BatchDecoder(g, 4, method)
        rng = np.random.default_rng(11)
        u = rng.integers(0, 4, size=(200, lat.dimension))
        y = u.astype(float) @ g.T + rng.normal(scale=0.4, size=(200, lat.dimension))
        batch = decoder.decode(y)
        for row, target in zip(batch, y):
            assert np.array_equal(row, closest_point(g, target, box=4, method=method))

    def test_brute_and_sphere_modes_agree(self):
        g = catalog_lattice("E4").generator
        brute = BatchDecoder(g, 4, Decoder.BRUTE_FORCE)
        sphere = BatchDecoder(g, 4, Decoder.SPHERE_DECODER)
        rng = np.random.default_rng(3)
        y = rng.normal(scale=1.5, size=(300, 4))
        assert np.array_equal(brute.decode(y), sphere.decode(y))

    def test_diagonal_fast_path_agrees_with_brute(self):
        g = np.diag([2.0, 0.5])
        brute = BatchDecoder(g, 8, Decoder.BRUTE_FORCE)
        fast = BatchDecoder(g, 8, Decoder.SPHERE_DECODER)
        rng = np.random.default_rng(5)
        y = rng.normal(scale=2.0, size=(500, 2))
        assert np.array_equal(brute.decode(y), fast.decode(y))

    def test_diagonal_half_way_ties_round_down(self):
        fast = BatchDecoder(np.eye(2), 4, Decoder.SPHERE_DECODER)
        out = fast.decode(
            np.array([[0.5, 1.5], [2.5, -0.5], [0.5 + 1e-13, 0.0], [0.5 + 3e-13, 0.5 + 3e-13]])
        )
        # The last row has one TIE_TOL for both coordinates: rounding both
        # down costs 1.2e-12, so only the first one rounds down.
        assert np.array_equal(out, [[0, 1], [2, 0], [0, 0], [0, 1]])

    def test_diagonal_near_ties_match_brute_force(self):
        # Targets a few 1e-13 (in squared distance) from half-way points,
        # several coordinates at once, against the exhaustive table.
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            box = int(rng.integers(2, 5))
            d = rng.choice([0.5, 0.75, 1.0, 2.0], size=n)
            half_way = rng.integers(-1, box, size=(100, n)) + 0.5
            offset = (rng.integers(-8, 9, size=(100, n)) + 0.37) * 1e-13 / d**2
            c = np.where(rng.random((100, n)) < 0.3, rng.random((100, n)) * box, half_way + offset)
            y = c * d
            fast = BatchDecoder(np.diag(d), box, Decoder.SPHERE_DECODER).decode(y)
            brute = BatchDecoder(np.diag(d), box, Decoder.BRUTE_FORCE).decode(y)
            assert np.array_equal(fast, brute)

    def test_decode_indices_ranks_row_major(self):
        g = catalog_lattice("Z2").generator
        decoder = BatchDecoder(g, 4, Decoder.BRUTE_FORCE)
        y = np.array([[0.1, 0.2], [3.2, 1.9], [1.4, 0.6]])
        idx = decoder.decode_indices(y)
        assert np.array_equal(idx, [0, 3 * 4 + 2, 1 * 4 + 1])
        assert np.array_equal(decoder.decode(y), [[0, 0], [3, 2], [1, 1]])

    def test_decode_indices_needs_the_point_table(self):
        decoder = BatchDecoder(np.eye(2), 4, Decoder.SPHERE_DECODER)
        with pytest.raises(ValueError):
            decoder.decode_indices(np.zeros((1, 2)))

    def test_chunking_covers_large_tables(self):
        # E8 with K = 4 has 65536 points, forcing many score chunks.
        g = catalog_lattice("E8").generator
        decoder = BatchDecoder(g, 4, Decoder.BRUTE_FORCE)
        rng = np.random.default_rng(9)
        u = rng.integers(0, 4, size=(64, 8))
        y = u.astype(float) @ g.T  # noiseless: must decode to u exactly
        assert np.array_equal(decoder.decode(y), u)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchDecoder(np.eye(2), 0, Decoder.BRUTE_FORCE)
        with pytest.raises(ValueError):
            BatchDecoder(np.zeros((2, 3)), 4, Decoder.BRUTE_FORCE)
        with pytest.raises(BudgetError):
            BatchDecoder(np.eye(2), 8192, Decoder.BRUTE_FORCE)
        decoder = BatchDecoder(np.eye(2), 4, Decoder.BRUTE_FORCE)
        with pytest.raises(ValueError):
            decoder.decode(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            decoder.decode(np.array([[np.nan, 0.0]]))
