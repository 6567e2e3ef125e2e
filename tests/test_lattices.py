"""Lattice catalog, normalization, minimum distance, sublattices, file I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest

from latticesep import BudgetError
from latticesep.lattices import (
    DminMethod,
    Lattice,
    catalog_lattice,
    catalog_names,
    is_integer_orthonormal,
    load_lattice,
    minimum_distance,
    read_lattice_file,
    sublattice_generator,
    write_lattice_file,
)

# Closed-form parameters of the built-in lattices.
A2_NORM = math.sqrt(2.0 / math.sqrt(3.0))  # 1.07457...
E4_NORM = 2.0 / 8.0**0.25  # 1.18921...
E8_MEAN_NORM = (2.0 + 7.0 * math.sqrt(2.0)) / 8.0  # 1.48744...
E8_D_MIN = math.sqrt(2.0)


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {"Z2", "A2", "E4", "E8"}

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_zn(self, n):
        lat = catalog_lattice(f"Z{n}")
        assert lat.dimension == n
        assert np.array_equal(lat.generator, np.eye(n))
        assert lat.mean_norm == 1.0
        assert lat.d_min == 1.0
        assert is_integer_orthonormal(lat)

    def test_zn_range(self):
        with pytest.raises(ValueError):
            catalog_lattice("Z0")
        with pytest.raises(ValueError):
            catalog_lattice("Z17")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog_lattice("D4")

    def test_name_forms(self):
        assert catalog_lattice("z_4").dimension == 4
        assert catalog_lattice("a2").name == "A2"

    def test_unit_determinants(self):
        for name in ("Z2", "Z8", "A2", "E4", "E8"):
            lat = catalog_lattice(name)
            assert abs(abs(np.linalg.det(lat.generator)) - 1.0) < 1e-9

    def test_a2_parameters(self):
        lat = catalog_lattice("A2")
        assert lat.mean_norm == pytest.approx(A2_NORM, abs=1e-9)
        assert lat.d_min == pytest.approx(A2_NORM, abs=1e-9)
        # Equal-norm basis at 60 degrees.
        v1, v2 = lat.generator.T
        assert np.linalg.norm(v1) == pytest.approx(np.linalg.norm(v2), abs=1e-12)
        cos_angle = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert cos_angle == pytest.approx(0.5, abs=1e-12)

    def test_e4_parameters(self):
        lat = catalog_lattice("E4")
        assert lat.mean_norm == pytest.approx(E4_NORM, abs=1e-9)
        assert lat.d_min == pytest.approx(E4_NORM, abs=1e-9)
        assert np.allclose(lat.basis_norms, E4_NORM, atol=1e-12)

    def test_e8_parameters(self):
        lat = catalog_lattice("E8")
        assert lat.mean_norm == pytest.approx(E8_MEAN_NORM, abs=1e-9)
        assert lat.d_min == pytest.approx(E8_D_MIN, abs=1e-9)
        # One doubled unit vector, seven norm-sqrt(2) vectors.
        assert sorted(np.round(lat.basis_norms, 9).tolist()) == pytest.approx(
            sorted([2.0] + [math.sqrt(2.0)] * 7), abs=1e-9
        )

    def test_immutable_generator(self):
        lat = catalog_lattice("A2")
        with pytest.raises(ValueError):
            lat.generator[0, 0] = 5.0


class TestMinimumDistance:
    @pytest.mark.parametrize("name", ["Z4", "A2", "E4", "E8"])
    def test_enumerate_confirms_catalog(self, name):
        lat = catalog_lattice(name)
        assert minimum_distance(lat, DminMethod.ENUMERATE) == pytest.approx(
            lat.d_min, abs=1e-9
        )

    def test_basis_min_default(self):
        lat = load_lattice(np.diag([3.0, 1.0 / 3.0]), normalize=False)
        assert minimum_distance(lat) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert minimum_distance(lat, DminMethod.ENUMERATE) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_enumerate_beats_basis_min_on_skewed_basis(self):
        # v2 - v1 = (-0.1, 0.5) is much shorter than either basis vector.
        lat = load_lattice([[2.0, 1.9], [0.0, 0.5]], normalize=False)
        assert minimum_distance(lat, DminMethod.BASIS_MIN) == pytest.approx(
            math.sqrt(1.9**2 + 0.25), rel=1e-12
        )
        assert minimum_distance(lat, DminMethod.ENUMERATE) == pytest.approx(
            math.sqrt(0.01 + 0.25), rel=1e-12
        )

    def test_enumeration_dimension_budget(self):
        with pytest.raises(BudgetError):
            minimum_distance(catalog_lattice("Z16"), DminMethod.ENUMERATE)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            minimum_distance(catalog_lattice("Z2"), "enumerate")


class TestLatticeChecks:
    def test_init_fields_are_name_generator_and_d_min(self):
        init = [f.name for f in dataclasses.fields(Lattice) if f.init]
        assert init == ["name", "generator", "d_min"]
        with pytest.raises(ValueError):
            dataclasses.replace(catalog_lattice("Z2"), mean_norm=5.0)

    def test_derived_fields(self):
        e8 = catalog_lattice("E8")
        lat = Lattice("E8", e8.generator, E8_D_MIN)
        assert lat.dimension == 8
        assert np.array_equal(lat.basis_norms, e8.basis_norms)
        assert lat.mean_norm == e8.mean_norm == pytest.approx(E8_MEAN_NORM, abs=1e-9)
        assert not lat.basis_norms.flags.writeable

    @pytest.mark.parametrize("d_min", [5.0, 1.0 + 1e-12, 0.0, -1.0, float("nan")])
    def test_d_min_outside_zero_to_shortest_basis_norm(self, d_min):
        # MSUB reads d_min: a Z2 with d_min = 5 would give an "upper bound"
        # of 1.6e-14 at 10 dB, K = 4, where the true MSUB is 0.204.
        with pytest.raises(ValueError, match="d_min"):
            Lattice("Z2", np.eye(2), d_min)

    @pytest.mark.parametrize(
        "generator",
        [
            2.0 * np.eye(2),
            np.diag([1.0, 1.0 + 2e-9]),
            np.ones((2, 3)),
            np.ones(2),
            [[1.0, float("nan")], [0.0, 1.0]],
            [[1.0, float("inf")], [0.0, 1.0]],
        ],
    )
    def test_generator_not_square_finite_unit_volume(self, generator):
        with pytest.raises(ValueError, match="generator"):
            Lattice("x", generator, 0.5)

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "cr\rname", "lf\nname", None])
    def test_name_that_breaks_a_csv_row(self, name):
        with pytest.raises(ValueError, match="name"):
            Lattice(name, np.eye(2), 1.0)

    def test_replace_is_checked(self):
        a2 = catalog_lattice("A2")
        with pytest.raises(ValueError, match="generator"):
            dataclasses.replace(a2, generator=2.0 * a2.generator)
        with pytest.raises(ValueError, match="d_min"):
            dataclasses.replace(a2, d_min=2.0)
        with pytest.raises(ValueError, match="name"):
            dataclasses.replace(a2, name="A,2")

    def test_caller_array_stays_writable_and_apart(self):
        g = np.eye(2)
        lat = Lattice("Z2", g, 1.0)
        assert g.flags.writeable
        assert not lat.generator.flags.writeable
        g[0, 0] = 5.0
        assert np.array_equal(lat.generator, np.eye(2))


class TestLoadLattice:
    def test_identity_passthrough(self):
        lat = load_lattice(np.eye(3), normalize=False)
        assert np.array_equal(lat.generator, np.eye(3))

    def test_unit_det_unchanged(self):
        lat = load_lattice(np.diag([2.0, 0.5]), normalize=False)
        assert np.array_equal(lat.generator, np.diag([2.0, 0.5]))
        assert lat.mean_norm == pytest.approx(1.25, rel=1e-12)
        assert lat.d_min == pytest.approx(0.5, rel=1e-12)

    def test_normalize_rescales(self):
        lat = load_lattice(np.diag([4.0, 1.0]), normalize=True)
        assert np.allclose(lat.generator, np.diag([2.0, 0.5]), atol=1e-12)
        assert abs(np.linalg.det(lat.generator)) == pytest.approx(1.0, abs=1e-12)
        # Mean norm describes the normalized basis.
        assert lat.mean_norm == pytest.approx(1.25, rel=1e-12)

    def test_d_min_is_enumerated_for_unreduced_basis(self):
        # Normalized by sqrt(2), v2 - v1 = (-0.1, 0.5) is shorter than both
        # basis vectors.
        lat = load_lattice([[1.0, 0.9], [0.0, 0.5]])
        assert lat.d_min == pytest.approx(math.sqrt(0.52), rel=1e-12)
        assert lat.basis_norms.min() == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_d_min_enumeration_dimension_budget(self):
        assert load_lattice(np.eye(12), normalize=False).d_min == 1.0
        with pytest.raises(BudgetError):
            load_lattice(np.eye(13), normalize=False)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            load_lattice([[1.0, 1.0], [0.0, 0.0]])

    def test_non_unit_det_without_normalize_rejected(self):
        with pytest.raises(ValueError):
            load_lattice(np.diag([4.0, 1.0]), normalize=False)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            load_lattice([[1.0, float("nan")], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            load_lattice(np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            load_lattice(np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ['my,lat"x', "a,b", 'say "x"', "cr\rname", "lf\nname"])
    def test_name_that_breaks_a_csv_row_rejected(self, name):
        # The name is written raw into the CSV rows' lattice field.
        with pytest.raises(ValueError, match="name"):
            load_lattice(np.eye(2), name=name)


class TestSublatticeGenerator:
    def test_zn_subset_is_identity(self):
        r = sublattice_generator(catalog_lattice("Z8"), (2, 5))
        assert np.allclose(r, np.eye(2), atol=1e-14)

    def test_single_column_norm(self):
        lat = catalog_lattice("E8")
        for i in range(1, 9):
            r = sublattice_generator(lat, (i,))
            assert r.shape == (1, 1)
            assert r[0, 0] == pytest.approx(lat.basis_norms[i - 1], rel=1e-12)

    def test_full_subset_preserves_determinant(self):
        lat = catalog_lattice("A2")
        r = sublattice_generator(lat, (1, 2))
        assert abs(np.linalg.det(r)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["A2", "E4", "E8"])
    def test_gram_preserved_over_all_subsets(self, name):
        lat = catalog_lattice(name)
        n = lat.dimension
        import itertools

        for k in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), k):
                r = sublattice_generator(lat, subset)
                cols = lat.generator[:, [i - 1 for i in subset]]
                assert np.max(np.abs(r.T @ r - cols.T @ cols)) <= 1e-10
                assert np.all(np.diagonal(r) > 0.0)
                assert np.allclose(r, np.triu(r))

    def test_gram_check_is_relative_on_a_wide_basis(self):
        # Unit volume, condition number 2.1e5.  Column 2 has squared norm
        # 3.6e5, and its one-column QR misses that by about 1.2e-10, which
        # an absolute 1e-10 tolerance refused.
        lat = load_lattice([[2000.0, 600.0, 0.0], [0.0, 0.05, 0.0], [0.0, 0.0, 0.01]], normalize=False)
        import itertools

        for k in range(1, 4):
            for subset in itertools.combinations(range(1, 4), k):
                r = sublattice_generator(lat, subset)
                cols = lat.generator[:, [i - 1 for i in subset]]
                gram = cols.T @ cols
                assert np.max(np.abs(r.T @ r - gram)) <= 1e-10 * np.max(np.abs(gram))

    def test_selector_validation(self):
        lat = catalog_lattice("Z4")
        with pytest.raises(ValueError, match="at least one basis index"):
            sublattice_generator(lat, ())
        with pytest.raises(ValueError, match=r"must lie in \[1, 4\]"):
            sublattice_generator(lat, (0, 1))
        with pytest.raises(ValueError, match=r"must lie in \[1, 4\]"):
            sublattice_generator(lat, (1, 5))
        with pytest.raises(ValueError, match="strictly increasing"):
            sublattice_generator(lat, (2, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            sublattice_generator(lat, (3, 1))


class TestLatticeFiles:
    @pytest.mark.parametrize("name", ["A2", "E4", "E8"])
    def test_round_trip_bit_faithful(self, name, tmp_path):
        lat = catalog_lattice(name)
        path = tmp_path / f"{name}.json"
        write_lattice_file(lat, path)
        again = read_lattice_file(path)
        assert again.name == lat.name
        assert np.array_equal(again.generator, lat.generator)
        # Second round trip reproduces identical bytes.
        path2 = tmp_path / "again.json"
        write_lattice_file(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_normalize_on_load(self, tmp_path):
        path = tmp_path / "scaled.json"
        payload = {
            "name": "scaled",
            "dimension": 2,
            "generator": [[4.0, 0.0], [0.0, 1.0]],
            "normalize": True,
        }
        path.write_text(json.dumps(payload))
        lat = read_lattice_file(path)
        assert np.allclose(lat.generator, np.diag([2.0, 0.5]), atol=1e-12)

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="line"):
            read_lattice_file(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"name": "x", "dimension": 2}))
        with pytest.raises(ValueError, match="generator"):
            read_lattice_file(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (5, "top level must be an object"),
            ({"name": "x", "dimension": 2, "generator": {"a": 1}}, "generator must be a list of rows"),
            # normalize takes only a JSON boolean and dimension only an
            # integer: "false" would otherwise rescale, and true read as 1.
            ({"name": "x", "dimension": 2, "generator": [[4.0, 0.0], [0.0, 1.0]], "normalize": "false"}, "normalize must be"),
            ({"name": "x", "dimension": 2, "generator": [[4.0, 0.0], [0.0, 1.0]], "normalize": 1}, "normalize must be"),
            ({"name": "x", "dimension": True, "generator": [[1.0]]}, "dimension must be an integer"),
            ({"name": "x", "dimension": 2.0, "generator": [[1.0, 0.0], [0.0, 1.0]]}, "dimension must be an integer"),
            # The name is taken as it is: null, a number or a list is no name.
            ({"name": None, "dimension": 2, "generator": [[1.0, 0.0], [0.0, 1.0]]}, "name None is not a string"),
            ({"name": 123, "dimension": 2, "generator": [[1.0, 0.0], [0.0, 1.0]]}, "name 123 is not a string"),
            ({"name": ["a"], "dimension": 2, "generator": [[1.0, 0.0], [0.0, 1.0]]}, r"name \['a'\] is not a string"),
        ],
    )
    def test_malformed_payload_is_a_value_error(self, tmp_path, payload, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            read_lattice_file(path)

    def test_written_with_lf_newlines(self, tmp_path):
        path = tmp_path / "a2.json"
        write_lattice_file(catalog_lattice("A2"), path)
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(
            json.dumps({"name": "x", "dimension": 3, "generator": [[1.0, 0.0], [0.0, 1.0]]})
        )
        with pytest.raises(ValueError, match="shape"):
            read_lattice_file(path)
