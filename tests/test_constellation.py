"""Facet combinatorics of the K-PAM carving."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticesep.constellation import FiniteConstellation, facet_count, points_per_facet
from latticesep.lattices import catalog_lattice


class TestFacetCount:
    def test_cube_has_12_edges_6_faces(self):
        assert facet_count(3, 1) == 12
        assert facet_count(3, 2) == 6

    def test_vertices(self):
        assert facet_count(5, 0) == 32
        assert facet_count(1, 0) == 2

    def test_interior_is_single_facet(self):
        for n in range(1, 9):
            assert facet_count(n, n) == 1

    def test_numpy_integers_are_accepted(self):
        assert facet_count(np.int64(3), 1) == 12
        assert points_per_facet(np.int32(4), np.int64(2)) == 4
        for n in (3.0, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                facet_count(n, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            facet_count(3, 4)
        with pytest.raises(ValueError):
            facet_count(0, 0)
        with pytest.raises(ValueError):
            facet_count(3, -1)


class TestPointsPerFacet:
    def test_examples(self):
        assert points_per_facet(4, 2) == 4
        assert points_per_facet(2, 3) == 0
        assert points_per_facet(32, 0) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            points_per_facet(1, 0)
        with pytest.raises(ValueError):
            points_per_facet(4, -1)


class TestCountPointsByClass:
    # Facet class k holds facet_count(N, k) facets of points_per_facet(K, k)
    # points each.

    def test_z2_4pam_tallies(self):
        by_dimension = {k: facet_count(2, k) * points_per_facet(4, k) for k in range(3)}
        assert by_dimension == {0: 4, 1: 8, 2: 4}

    def test_k2_everything_is_vertex(self):
        assert facet_count(4, 0) * points_per_facet(2, 0) == 16
        assert all(points_per_facet(2, k) == 0 for k in range(1, 5))

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("big_k", [2, 3, 4, 8, 32])
    def test_partition_identity(self, n, big_k):
        total = sum(facet_count(n, k) * points_per_facet(big_k, k) for k in range(n + 1))
        assert total == big_k**n

    @given(n=st.integers(1, 8), big_k=st.integers(2, 64))
    @settings(max_examples=100, deadline=None)
    def test_partition_identity_property(self, n, big_k):
        total = sum(facet_count(n, k) * points_per_facet(big_k, k) for k in range(n + 1))
        assert total == big_k**n

    def test_matches_explicit_classification(self):
        # A point's facet dimension counts its strictly interior coordinates.
        for n, big_k in [(2, 2), (2, 4), (3, 3), (3, 4)]:
            tally = dict.fromkeys(range(n + 1), 0)
            for u in itertools.product(range(big_k), repeat=n):
                tally[sum(1 for ui in u if 0 < ui < big_k - 1)] += 1
            expected = {k: facet_count(n, k) * points_per_facet(big_k, k) for k in range(n + 1)}
            assert tally == expected


class TestFiniteConstellation:
    def test_constellation_validation(self):
        with pytest.raises(ValueError):
            FiniteConstellation(catalog_lattice("Z2"), 1)
        with pytest.raises(ValueError):
            FiniteConstellation(catalog_lattice("Z2"), 4.0)

    def test_numpy_integers_are_accepted_as_python_ints(self):
        c = FiniteConstellation(catalog_lattice("Z2"), np.int64(4))
        assert c.K == 4 and type(c.K) is int and c.size == 16
        for big_k in (True, np.bool_(True), np.float64(4.0)):
            with pytest.raises(ValueError, match="K must be an integer"):
                FiniteConstellation(catalog_lattice("Z2"), big_k)
        with pytest.raises(ValueError, match="K must be at least 2"):
            FiniteConstellation(catalog_lattice("Z2"), np.int32(1))
