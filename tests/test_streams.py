"""Tests for the deterministic random-stream conventions."""

import math

import numpy as np
import pytest

from latticesep import sep as sep_module
from latticesep.streams import (
    SHARD_SIZE,
    coarse_normals,
    derive_seed,
    normal_angles,
    normal_radii,
    normals_from_angles,
    seek,
    standard_normals,
    stream,
    uniform_symbols,
    uniforms_to_symbols,
)


class TestStream:
    def test_same_seed_and_path_replays(self):
        a = stream(12345, 3, 7).random(16)
        b = stream(12345, 3, 7).random(16)
        assert np.array_equal(a, b)

    def test_different_path_decorrelates(self):
        a = stream(12345, 3, 7).random(16)
        b = stream(12345, 3, 8).random(16)
        c = stream(12345, 4, 7).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_path_order_matters(self):
        a = stream(1, 2, 3).random(8)
        b = stream(1, 3, 2).random(8)
        assert not np.array_equal(a, b)

    def test_empty_path_is_valid(self):
        a = stream(99).random(4)
        b = stream(99).random(4)
        assert np.array_equal(a, b)

    def test_seed_range_is_checked(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(1 << 64)
        with pytest.raises(ValueError):
            stream(2.5)

    def test_path_components_must_be_non_negative_integers(self):
        with pytest.raises(ValueError):
            stream(0, -1)
        with pytest.raises(ValueError):
            stream(0, 1.5)
        for part in (-1, 1.5, True):
            with pytest.raises(ValueError):
                derive_seed(0, part)

    def test_shard_size_is_a_power_of_two(self):
        assert SHARD_SIZE == 1 << 16


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_distinct_paths_give_distinct_seeds(self):
        seeds = {derive_seed(7, k, p) for k in range(4) for p in range(8)}
        assert len(seeds) == 32

    def test_result_is_a_valid_seed(self):
        child = derive_seed(2**63, 5)
        assert 0 <= child < 2**64
        stream(child)  # must be accepted as a root seed


class TestStandardNormals:
    def test_documented_draw_order(self):
        # The transform consumes all radial uniforms first, then all angular
        # ones, and concatenates the cosine block before the sine block.
        rng = stream(42, 0)
        u1 = rng.random(3)
        u2 = rng.random(3)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        expected = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:5]
        assert np.array_equal(standard_normals(stream(42, 0), 5), expected)

    def test_odd_count_truncates_the_pair_block(self):
        odd = standard_normals(stream(8, 1), 7)
        even = standard_normals(stream(8, 1), 8)
        assert odd.shape == (7,)
        assert np.array_equal(odd, even[:7])

    def test_moments(self):
        z = standard_normals(stream(123), 200_000)
        assert abs(float(z.mean())) < 0.01
        assert abs(float(z.var()) - 1.0) < 0.02

    def test_zero_count(self):
        assert standard_normals(stream(1), 0).shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            standard_normals(stream(1), -1)

    def test_all_values_finite(self):
        z = standard_normals(stream(77, 2), 100_000)
        assert np.all(np.isfinite(z))


def _open_normals(rng, count, entries):
    # The chosen entries of a block of count normals.
    radius = normal_radii(rng, count)
    angle = normal_angles(rng, radius.size)
    return normals_from_angles(radius, angle, count, entries)


class TestNormalsFromRadii:
    # Blocks of m rows of n entries: count = 1, odd m and odd counts, and
    # the final short shard of a 200000-trial point (200000 - 3 * 2**16).
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (7, 3), (9, 8), (4, 5), (3392, 8), (3391, 3)])
    def test_open_rows_match_the_whole_block(self, m, n):
        count = m * n
        whole = standard_normals(stream(6, m, n), count)
        pick = np.random.default_rng(m * n)
        subsets = [
            np.arange(m),
            np.arange(0),
            np.array([0]),
            np.array([m - 1]),
            np.sort(pick.choice(m, (m + 1) // 2, replace=False)),
            np.arange(m // 2, m),
        ]
        for rows in subsets:
            entries = (rows[:, None] * n + np.arange(n)).reshape(-1)
            rng = stream(6, m, n)
            assert np.array_equal(_open_normals(rng, count, entries), whole[entries])

    def test_whole_block_equals_standard_normals(self):
        for count in (1, 2, 5, 8, 101):
            rng = stream(4, count)
            radius = normal_radii(rng, count)
            block = normals_from_angles(radius, normal_angles(rng, radius.size), count)
            assert np.array_equal(block, standard_normals(stream(4, count), count))

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (9, 8), (3391, 3)])
    def test_row_blocks_into_buffers_match_the_whole_block(self, m, n):
        # Radii and angles written into larger buffers, then row blocks in
        # ascending order: every block's entries are the whole block's, and
        # the draws take exactly the block's uniforms from the stream.
        count = m * n
        whole = standard_normals(stream(8, m, n), count)
        rng = stream(8, m, n)
        radius = normal_radii(rng, count, out=np.full(count + 7, np.nan))
        assert radius.size == (count + 1) // 2
        angle = normal_angles(rng, radius.size, out=np.full(radius.size + 3, np.nan))
        rows = np.sort(np.random.default_rng(count).choice(m, (m + 1) // 2, replace=False))
        for block in np.array_split(rows, 5):
            entries = (block[:, None] * n + np.arange(n)).reshape(-1)
            assert np.array_equal(normals_from_angles(radius, angle, count, entries), whole[entries])
        replay = stream(8, m, n)
        replay.random(2 * radius.size)
        assert rng.random() == replay.random()


    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (9, 8), (3391, 3)])
    def test_row_ranges_match_the_whole_block(self, m, n):
        # Slices of the block: all cosines, all sines, the range across the
        # split, a single entry and an empty range.
        count = m * n
        whole = standard_normals(stream(9, m, n), count)
        rng = stream(9, m, n)
        radius = normal_radii(rng, count)
        angle = normal_angles(rng, radius.size)
        pairs = radius.size
        across = (max(pairs - 5, 0), min(pairs + 4, count))
        for lo, hi in [(0, count), (0, pairs), (pairs, count), across, (count - 1, count), (pairs, pairs)]:
            assert np.array_equal(normals_from_angles(radius, angle, count, slice(lo, hi)), whole[lo:hi])


class TestCoarseNormals:
    def test_single_precision_trig_stays_within_its_bound(self):
        # 2**22 random angles 2 pi u and the edges u = 0, 2**-53, 1 - 2**-53
        # and the quarter turns, at the largest Box-Muller radius
        # sqrt(-2 log 2**-53) ~ 8.57: every cosine and sine is within the
        # documented 4.3e-6 of the double-precision one, and so within an
        # eighth of the slack that the entry verdicts allow it.
        edges = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 0.25, 0.5, 0.75])
        rng = np.random.default_rng(22)
        worst = 0.0
        for u in [edges, *(rng.random(1 << 20) for _ in range(4))]:
            angle = u * (2.0 * np.pi)
            radius = np.full(u.size, math.sqrt(-2.0 * math.log(2.0**-53)))
            exact = normals_from_angles(radius, angle, 2 * u.size)
            worst = max(worst, float(np.max(np.abs(coarse_normals(radius, angle, 2 * u.size) - exact))))
        assert worst <= 4.3e-6
        assert worst <= sep_module._COARSE_SLACK / 8

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (3391, 3)])
    def test_entries_and_ranges_follow_the_block_layout(self, m, n):
        # The same entries, slices and index sets, as normals_from_angles.
        count = m * n
        rng = stream(10, m, n)
        radius = normal_radii(rng, count)
        angle = normal_angles(rng, radius.size)
        whole = coarse_normals(radius, angle, count)
        assert whole.shape == (count,)
        assert np.max(np.abs(whole - normals_from_angles(radius, angle, count))) <= 4.3e-6
        entries = np.sort(np.random.default_rng(count).choice(count, (count + 1) // 2, replace=False))
        assert np.array_equal(coarse_normals(radius, angle, count, entries), whole[entries])
        assert np.array_equal(coarse_normals(radius, angle, count, slice(count // 2, count)), whole[count // 2 :])


class TestSeek:
    def test_positioned_reads_match_a_front_to_back_read(self):
        # Word t of a Philox stream is word t mod 4 of the block at counter
        # floor(t / 4) + 1; a numpy change to the counter or to advance()
        # fails here.  Reads in this order: ascending and unaligned starts,
        # a start inside the 4-word block that the previous read left
        # partly used (words 5, 6 read, 7 pending), a run across 1024-word
        # chunks, then rewinds to earlier positions, aligned and not.
        whole = stream(5, 1, 2).random(5000)
        rng = stream(5, 1, 2)
        origin = rng.bit_generator.state
        reads = [(0, 3), (5, 2), (7, 9), (17, 1), (22, 2040), (4001, 999), (4, 4), (0, 5000), (3, 1), (2050, 6)]
        for start, length in reads:
            seek(rng, origin, start)
            assert np.array_equal(rng.random(length), whole[start : start + length]), (start, length)

    def test_reads_continue_after_a_seek(self):
        # After a seek the stream goes on word by word, across block edges,
        # and the Box-Muller steps read from the seeked position.
        whole = stream(6).random(64)
        rng = stream(6)
        origin = rng.bit_generator.state
        seek(rng, origin, 9)
        assert np.array_equal(np.concatenate([rng.random(2), rng.random(5)]), whole[9:16])
        seek(rng, origin, 33)
        angle = normal_angles(rng, 10)
        assert np.array_equal(angle, 2.0 * np.pi * whole[33:43])


class TestUniformSymbols:
    def test_range_and_dtype(self):
        u = uniform_symbols(stream(5), 10_000, 4)
        assert u.dtype == np.int64
        assert u.min() >= 0
        assert u.max() <= 3

    def test_documented_transform(self):
        rng = stream(5, 9)
        expected = np.minimum((rng.random(100) * 8).astype(np.int64), 7)
        assert np.array_equal(uniform_symbols(stream(5, 9), 100, 8), expected)

    def test_symbols_of_drawn_uniforms(self):
        u = stream(5, 9).random(100)
        assert np.array_equal(uniforms_to_symbols(u, 8), uniform_symbols(stream(5, 9), 100, 8))

    def test_every_level_is_reachable(self):
        u = uniform_symbols(stream(2), 10_000, 4)
        assert set(np.unique(u)) == {0, 1, 2, 3}

    def test_roughly_uniform(self):
        u = uniform_symbols(stream(3), 40_000, 4)
        counts = np.bincount(u, minlength=4)
        assert counts.min() > 9_000

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_symbols(stream(1), -1, 4)
        with pytest.raises(ValueError):
            uniform_symbols(stream(1), 10, 0)
