"""Closest-point search: sphere decoder, brute-force reference, enumeration."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticesep import BudgetError, cvp
from latticesep.cvp import (
    BatchDecoder,
    Decoder,
    closest_point,
    enumerate_within_radius,
    shortest_vector_norm,
    voronoi_test_vectors,
)
from latticesep.lattices import catalog_lattice, load_lattice

# A fixed skewed unit-volume basis, and two more for the pinned test vectors.
_SKEWED = [[1.0, 0.6, -0.3], [0.2, 1.1, 0.7], [-0.4, 0.3, 0.9]]
_SKEWED_MORE = [
    [[2.0, 1.9, 0.3], [0.0, 0.5, -0.7], [0.1, 0.2, 1.3]],
    [[1.0, -0.45, 0.8], [0.3, 1.2, -0.6], [0.0, 0.25, 0.7]],
]


# A unit-volume basis of a nearly square lattice: the diagonal cosets hold
# vectors of squared norms 2 -+ 2e-10, and only the shorter is relevant.
_NEAR_SQUARE = [[0.0, 1.0], [1.0, 1e-10]]


def _generator(name):
    # A catalog lattice, a fixed skewed basis (an integer) or "near-square".
    if isinstance(name, int):
        return load_lattice(([_SKEWED] + _SKEWED_MORE)[name]).generator
    if name == "near-square":
        return np.array(_NEAR_SQUARE)
    return catalog_lattice(name).generator


def _noisy_rows(generator, big_k, rows, sigma, seed):
    # Symbols u uniform over the box and targets G u + N(0, sigma**2 I).
    rng = np.random.default_rng(seed)
    n = generator.shape[0]
    u = rng.integers(0, big_k, size=(rows, n))
    return u, u @ generator.T + rng.normal(scale=sigma, size=(rows, n))


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

    def test_targets_beyond_2_to_52_basis_coordinates_are_rejected(self):
        g = catalog_lattice("A2").generator
        with pytest.raises(ValueError, match="targets"):
            closest_point(g, [1e19, 0.0])
        with pytest.raises(ValueError, match="targets"):
            closest_point(g, [1e16, 0.0], box=4)
        with pytest.raises(ValueError, match="e must"):
            BatchDecoder(g, 4).radius_query(np.zeros((1, 2), dtype=np.int64), np.array([[0.0, 1e19]]))
        # Rounding (a diagonal generator) applies the same rule.
        with pytest.raises(ValueError, match="targets"):
            closest_point(np.eye(2), [1e19, 0.0])
        with pytest.raises(ValueError, match="targets"):
            closest_point(np.diag([2.0, 0.5]), [1e16, 0.0], box=4)
        assert closest_point(np.eye(2), [2.0**52, -(2.0**52)]).tolist() == [2**52, -(2**52)]

    @pytest.mark.parametrize("box", [4.7, True, 0, "4"])
    def test_box_must_be_a_positive_integer(self, box):
        with pytest.raises(ValueError, match="box must"):
            BatchDecoder(np.eye(2), box)

    def test_numpy_integer_box_is_accepted(self):
        assert BatchDecoder(np.eye(2), np.int64(4)).decode([[4.2, 0.0]]).tolist() == [[3, 0]]

    @pytest.mark.parametrize("tol", [0.05, 0.2])
    @pytest.mark.parametrize(
        "name, big_k", [("A2", 4), ("E4", 4), ("skewed", 6), ("diagonal", 4), ("diagonal", 2)]
    )
    def test_one_tie_rule_with_a_wide_tie_window(self, monkeypatch, tol, name, big_k):
        # With a tie window wide enough that near ties chain (a within tol
        # of b, b within tol of c, a not within tol of c), the sphere
        # decoder still keeps exactly the table's candidates: those within
        # tol of the least distance, the lexicographically smallest winning.
        # A diagonal generator goes through the same search.
        monkeypatch.setattr(cvp, "TIE_TOL", tol)
        if name == "skewed":
            g = load_lattice(_SKEWED).generator
        elif name == "diagonal":
            g = np.diag([2.0, 0.5, 1.0])
        else:
            g = catalog_lattice(name).generator
        _, y = _noisy_rows(g, big_k, 3000, 0.6, 2)
        sphere = BatchDecoder(g, big_k, Decoder.SPHERE_DECODER).decode(y)
        brute = BatchDecoder(g, big_k, Decoder.BRUTE_FORCE).decode(y)
        assert np.array_equal(sphere, brute)


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

    def test_order_is_last_coordinate_first(self):
        found = [z for z, _ in enumerate_within_radius(catalog_lattice("E4").generator, 1.6)]
        assert len(found) > 24
        assert found == sorted(found, key=lambda z: z[::-1])

    def test_bad_centers_are_rejected(self):
        g = catalog_lattice("A2").generator
        for center in ([np.nan, 0.0], [np.inf, 0.0], [1e19, 0.0]):
            with pytest.raises(ValueError, match="center"):
                enumerate_within_radius(g, 1.0, center=center)

    @pytest.mark.parametrize("radius", [-1.0, math.inf, math.nan])
    def test_bad_radius_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            enumerate_within_radius(np.eye(2), radius)

    def test_center_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match="center"):
            enumerate_within_radius(np.eye(2), 1.0, center=[0.0, 0.0, 0.0])

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(cvp, "_ENUM_MAX_NODES", 1000)
        with pytest.raises(BudgetError):
            enumerate_within_radius(np.eye(2), 1e4)

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
        # The diagonals (+-1, +-1) share a coset with four shortest vectors,
        # so they are not relevant: the cell is the square of the axes.
        v = voronoi_test_vectors(np.eye(2))
        got = sorted(map(tuple, v.tolist()))
        assert got == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]

    def test_a2_is_hexagonal(self):
        lat = catalog_lattice("A2")
        v = voronoi_test_vectors(lat.generator)
        assert len(v) == 6
        assert np.allclose(np.linalg.norm(v, axis=1), lat.d_min, atol=1e-9)

    @pytest.mark.parametrize(
        "name,k",
        [("Z2", 2), ("Z3", 3), ("A2", 2), ("E4", 4), ("E8", 8), (0, 3), (1, 3), (2, 3), ("near-square", 2)],
    )
    def test_membership_agrees_with_decoding(self, name, k):
        # The half-space test must reproduce "the origin is a closest lattice
        # point" exactly, decided here by the sphere decoder.
        g = _generator(name)
        v = voronoi_test_vectors(g)
        half_norms = 0.5 * np.sum(v * v, axis=1)
        rng = np.random.default_rng(7)
        samples = rng.normal(scale=0.7, size=(500, k))
        inside_test = np.all(samples @ v.T <= half_norms + 1e-12, axis=1)
        z = BatchDecoder(g, None, Decoder.SPHERE_DECODER).decode(samples)
        d_best = np.sum((z @ g.T - samples) ** 2, axis=1)
        d_origin = np.sum(samples**2, axis=1)
        assert np.array_equal(inside_test, d_origin <= d_best + 1e-12)

    @pytest.mark.parametrize("name", ["Z2", "A2", "E4", "E8", 0, 1, 2, "near-square"])
    def test_every_vector_is_relevant(self, name):
        # Voronoi's criterion: the sphere on the segment from 0 to v holds
        # no other lattice point.
        g = _generator(name)
        k = g.shape[0]
        for v in voronoi_test_vectors(g):
            c = tuple(np.rint(np.linalg.solve(g, v)).astype(int).tolist())
            found = enumerate_within_radius(g, np.linalg.norm(v) / 2.0, center=v / 2.0)
            assert sorted(z for z, _ in found) == sorted([(0,) * k, c])

    def test_large_norms_keep_every_shortest_coset_vector(self):
        # Squared norms of 1e4 leave no room below TIE_TOL / 4 for rounding,
        # so the four tied diagonals of 100 Z2 are all kept.
        v = voronoi_test_vectors(100.0 * np.eye(2))
        got = sorted(map(tuple, (v / 100.0).tolist()))
        assert got == [p for p in itertools.product((-1.0, 0.0, 1.0), repeat=2) if any(p)]
        assert len(voronoi_test_vectors(30.0 * catalog_lattice("E4").generator)) == 48

    @pytest.mark.parametrize(
        "name, count, digest",
        [
            ("Z2", 4, "d8c6689261283644e289f4d1f84dbca07a117c39e42a843a269de32128daee4d"),
            ("A2", 6, "429d69cef547a7d00b5d3463ac57ba8e390a2c531191c29903ba4cdaa141496f"),
            ("E4", 24, "c2bad9bc38dc705ee80464add7ff586527a0cdb8839e6c23bb46e07b8567ad43"),
            ("E8", 240, "17f6b464668bbaeaf6a631c0a0fc7e8265edc43e94070843a853cbd905845567"),
            (0, 14, "1e8201dd030ce0e359b42f7d2c991fc75f9cb645d9327393446c610be160142d"),
            (1, 14, "bbc637d3bd0310e8d81a279e2a150a8feb962d3d55f9dd0c1dbe7abcc3b7c7f4"),
            (2, 14, "8451e6dba5753c28cf0f5be72ff1dbef015aa3c391dc5a061aa173ec40a18904"),
        ],
    )
    def test_pinned_vectors(self, name, count, digest):
        # SHA-256 of the float64 bytes of the vectors, sorted row-wise;
        # integers select the fixed skewed bases.  A2 and the skewed bases
        # keep the digests of the earlier superset (every shortest vector of
        # each coset), which held only relevant vectors there.
        v = voronoi_test_vectors(_generator(name))
        v = np.ascontiguousarray(v[np.lexsort(v.T[::-1])])
        assert len(v) == count
        assert hashlib.sha256(v.tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("name, big_k", [("A2", 64), ("skewed", 20)])
    def test_table_splits_near_ties_as_the_sphere_search_does(self, name, big_k):
        # Midpoints of neighbouring box points, off by 1e-14: ties that the
        # table's score |p|**2 - 2 y.p cannot split by itself where |p|**2
        # is large (about 4400 on A2 with K = 64).
        g = load_lattice(_SKEWED).generator if name == "skewed" else catalog_lattice(name).generator
        n = g.shape[0]
        steps = np.rint(np.linalg.solve(g, voronoi_test_vectors(g).T)).T
        rng = np.random.default_rng(0)
        u = rng.integers(0, big_k, (2000, n))
        y = (u + steps[rng.integers(0, len(steps), 2000)] / 2.0) @ g.T
        y += rng.normal(scale=1e-14, size=y.shape)
        brute = BatchDecoder(g, big_k, Decoder.BRUTE_FORCE).decode(y)
        assert np.array_equal(brute, BatchDecoder(g, big_k, Decoder.SPHERE_DECODER).decode(y))

    def test_table_takes_the_smaller_of_two_near_tied_points(self):
        # Squared distances 6.1e-13 and 4.9e-14 apart on the skewed basis
        # with K = 20: the lexicographically smaller point wins.
        g = load_lattice(_SKEWED).generator
        y = np.array(
            [
                [20.568150399320032, 35.693869249679054, 17.599551372614037],
                [8.764435221703353, 48.487117436197515, 31.947780001692813],
            ]
        )
        for method in Decoder:
            assert np.array_equal(BatchDecoder(g, 20, method).decode(y), [[13, 10, 16], [0, 19, 19]])

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

    @pytest.mark.parametrize(
        "name, box, method",
        [
            ("A2", 4, Decoder.BRUTE_FORCE),  # the point table
            ("E8", 3, Decoder.SPHERE_DECODER),  # the sphere search
            ("A2", None, Decoder.SPHERE_DECODER),  # the unbounded sphere search
            ("Z3", 4, Decoder.SPHERE_DECODER),  # the sphere search on a diagonal generator
            ("Z3", None, Decoder.SPHERE_DECODER),
        ],
    )
    def test_no_targets_decode_to_an_empty_array(self, name, box, method):
        # Every search returns shape (0, n) int64 for zero rows, as it does
        # for one row in (1, n); so does the point table's index query.
        g = catalog_lattice(name).generator
        n = g.shape[0]
        decoder = BatchDecoder(g, box, method)
        decoded = decoder.decode(np.empty((0, n)))
        assert decoded.shape == (0, n) and decoded.dtype == np.int64
        assert decoder.decode(np.zeros((1, n))).shape == (1, n)
        if method is Decoder.BRUTE_FORCE:
            assert decoder.decode_indices(np.empty((0, n))).shape == (0,)

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


def _search_results(generator, big_k, rows, sigma, seed):
    # What every search built on the enumerator returns for one generator.
    u, y = _noisy_rows(generator, big_k, rows, sigma, seed)
    decoder = BatchDecoder(generator, big_k, Decoder.SPHERE_DECODER)
    return (
        decoder.decode(y),
        BatchDecoder(generator, None, Decoder.SPHERE_DECODER).decode(y),
        *decoder.radius_query(u, y - u @ generator.T),
        enumerate_within_radius(generator, 2.0, center=y[0]),
        voronoi_test_vectors(generator),
    )


class TestChunkedEnumeration:
    @pytest.mark.parametrize(
        "name, big_k, rows, sigma",
        [("A2", 8, 300, 1.0), ("E8", 4, 12, 0.8), ("skewed", 20, 300, 0.7)],
    )
    def test_tiny_chunks_give_the_same_values(self, monkeypatch, name, big_k, rows, sigma):
        # With 3 nodes per step, every level and many a single parent's
        # window is split into chunks; every result must be unchanged.
        g = load_lattice(_SKEWED).generator if name == "skewed" else catalog_lattice(name).generator
        default = _search_results(g, big_k, rows, sigma, 8)
        monkeypatch.setattr(cvp, "_CHUNK", 3)
        tiny = _search_results(g, big_k, rows, sigma, 8)
        for a, b in zip(default, tiny):
            if isinstance(a, list):
                assert a == b
            else:
                assert np.array_equal(a, b, equal_nan=True)

    def test_a_window_wider_than_a_chunk_is_split(self, monkeypatch):
        # The last coordinate's window, under one parent, holds 9 values.
        default = enumerate_within_radius(np.eye(2), 4.0)
        monkeypatch.setattr(cvp, "_CHUNK", 3)
        assert enumerate_within_radius(np.eye(2), 4.0) == default
        assert len(default) == 49

    def test_memory_is_bounded_at_low_snr(self):
        # E8 K = 4 at 0 dB: about 2 M leaves within the first radius of
        # 2000 rows if listed at once (over 600 MB); chunks hold the peak.
        g = catalog_lattice("E8").generator
        _, y = _noisy_rows(g, 4, 2000, 1.0, 1)
        decoder = BatchDecoder(g, 4, Decoder.SPHERE_DECODER)
        tracemalloc.start()
        try:
            decoder.decode(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
