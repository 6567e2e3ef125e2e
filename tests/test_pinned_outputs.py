"""Byte identity of the bound, exact-SEP and simulated-SEP CSV rows.

The SHA-256 digests pin the exact text that ``curve_csv_rows`` and
``sep_csv_rows`` produce, so a refactor of the facet sum, of the
sphere-bound code, of the decoders or of the simulator's shard loop that
moves even the twelfth significant digit (or one trial count) fails
here.  When an output change is intended, regenerate the digests and
record the reason in CHANGES.md.
"""

import hashlib

import pytest

from latticesep.bounds import SnrGrid, curve_csv_rows, mslb, msub, slb, sub
from latticesep.constellation import FiniteConstellation
from latticesep import sep as sep_module
from latticesep.cvp import BatchDecoder, Decoder
from latticesep.lattices import catalog_lattice, load_lattice
from latticesep.sep import JSource, SimPlan, exact_sep_theorem1, sep_csv_rows, simulate_sep

BOUND_DIGESTS = {
    ("A2", 4): {
        "mslb": "b273a0ddba0087a862127e8dbb632b575a5e5ba8a391b11dd0d8a136fb044391",
        "msub": "d73cc7f94222f673aeba221f986ad693ebb7144ac3ca96627d230170cde76070",
        "slb": "1cac4fa91ae538c4d2a7ac9a4464b0fd3a0c9d0bc0e38a01980aa49f067ebcb3",
        "sub": "7f0b2abaa3b084300ea3656a76781e6ad718a709218cfd4b73081862963dc0e2",
    },
    ("E4", 2): {
        "mslb": "1bfc3a57c84736f0ed0d6efdd20bc958705387fa057b4a7fee4e2519c7de3d07",
        "msub": "c77fd3c6956aab65ba828e88d6bc5940b687c652398ec640d898d3b475e3d795",
        "slb": "996e3617cddae1b24fe5f66e01ae9f05c6458179dd82a8a78d665f9c3e05eb50",
        "sub": "0b5a4203aaf3fd0fc6e4225972c896756cbd2cec735020f97d16c831bd68582f",
    },
    ("Z2", 5): {
        "mslb": "19e6987f38cb10a4da1845862800b8646b5aed0a9133d797b86464b8994b923e",
        "msub": "1daed4fd8f9f6591f4023d0218f394c69dd0b9906ae0422483cc91f740fd2100",
        "slb": "a16de18df9936253e1aa9c0119efa8735eb7e759164e1abfa321458989bd905b",
        "sub": "56fd7885502b39f7e44a857debf04927dab77dfb0772f63871e59ed1d4fa739a",
    },
    ("A2", 3): {
        "mslb": "c34858be2942b32b508b849608f15ed0985eeb3566a56e6e698881909ae9384b",
        "msub": "f4da0f05b756e050c23de7c3d947efd468fea7a9ec877460265821c4a68dcaa7",
        "slb": "1cac4fa91ae538c4d2a7ac9a4464b0fd3a0c9d0bc0e38a01980aa49f067ebcb3",
        "sub": "7f0b2abaa3b084300ea3656a76781e6ad718a709218cfd4b73081862963dc0e2",
    },
}


def _digest(rows):
    return hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name, big_k", list(BOUND_DIGESTS))
def test_bound_csv_bytes(name, big_k):
    c = FiniteConstellation(catalog_lattice(name), big_k)
    grid = SnrGrid.from_db(0.0, 30.0, 0.25)
    curves = {
        "mslb": mslb(c, grid),
        "msub": msub(c, grid),
        "slb": slb(c.lattice, grid),
        "sub": sub(c.lattice, grid),
    }
    digests = {
        kind: _digest(curve_csv_rows(curve, c)) for kind, curve in curves.items()
    }
    assert digests == BOUND_DIGESTS[(name, big_k)]


def test_exact_analytic_csv_bytes():
    c = FiniteConstellation(catalog_lattice("Z3"), 4)
    estimates = exact_sep_theorem1(c, SnrGrid.from_db(0.0, 30.0, 0.25), JSource.ANALYTIC_ZN)
    assert _digest(sep_csv_rows(estimates, c, None)) == (
        "b092d4917fe2ca3837efe7a412e8563a3edf84d617074b7d44cc3f9f0a75682c"
    )


def test_exact_monte_carlo_csv_bytes():
    c = FiniteConstellation(catalog_lattice("A2"), 4)
    grid = SnrGrid.from_db_values([0.0, 6.0, 12.0])
    estimates = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**4, seed=3)
    assert _digest(sep_csv_rows(estimates, c, 3)) == (
        "d1f82ff0b61c7a86c0fa8bdd6ac791d189ee43fb1a0184f5063a6db6216b4094"
    )


@pytest.mark.parametrize(
    "name, big_k, seed, grid, digest",
    [
        (
            "E4", 4, 2, SnrGrid.from_db(0.0, 24.0, 0.5),
            "289230b43386060aae0bf1f08bcb54e23baa981e1199b8fbb6c1a3a933cfa161",
        ),
        (
            "E8", 2, 1, SnrGrid.from_db_values([0.0, 6.0, 12.0, 18.0]),
            "c2baf67d0c4d99f6dec06381ac80b9271149e0540f0cc7b058cfeecbb4e63cf8",
        ),
    ],
)
def test_exact_monte_carlo_csv_bytes_beyond_a2(name, big_k, seed, grid, digest):
    # Off A2 the cells have many half-spaces (E8: rank-8 cells with
    # thousands), so these pin the tie rule on cells with many faces.
    c = FiniteConstellation(catalog_lattice(name), big_k)
    estimates = exact_sep_theorem1(c, grid, JSource.MC_VORONOI, trials_per_j=10**4, seed=seed)
    assert _digest(sep_csv_rows(estimates, c, seed)) == digest


# A fixed skewed 3-D basis (condition number 9.2 after scaling to unit
# volume); with K = 20 it has 8000 points, so the radius query decides its
# open trials.  And a signed diagonal of unit volume, decided coordinate by
# coordinate with three different limits, one of them mirrored.
_BASES = {
    "skew3": [[1.0, 0.6, -0.3], [0.2, 1.1, 0.7], [-0.4, 0.3, 0.9]],
    "diag3": [[2.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0]],
}


def _lattice(name):
    return load_lattice(_BASES[name], name=name) if name in _BASES else catalog_lattice(name)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "name, big_k, decoder, seed, snr_db, max_trials, target_errors, digest",
    [
        (
            "A2", 4, Decoder.BRUTE_FORCE, 11, [10.0, 14.0, 16.0], 300000, 3000,
            "9c539e65ec19eaceae915497ac8f1b69b0296fede2bdcc0ce5deba3256b0d3ea",
        ),
        (
            "E4", 2, Decoder.BRUTE_FORCE, 12, [6.0, 12.0], 30000, 400,
            "95b5195e40507759c1e0ee1d527c73be983741df1ba8c38b94cda52dfed0c0fa",
        ),
        (
            "Z3", 4, Decoder.BRUTE_FORCE, 13, [10.0, 14.0, 17.0], 500000, 5000,
            "95d1af5c49e7e14ba3fb9d2426d6c598e67363e1518a7c1502ce3b303e647af7",
        ),
        (
            "A2", 128, Decoder.SPHERE_DECODER, 14, [8.0, 14.0, 18.0], 200000, 2000,
            "cf2418bd4c25e0bb6bd8a44d4e55cb9cc20abd187b43fcf6b50a9fe6e01b87b9",
        ),
        (
            "E8", 4, Decoder.SPHERE_DECODER, 1, [6.0, 12.0], 20000, 400,
            "161db312ed2f9e4c186b03d97139ea1b20a0df3b38825cab7361c781a8f0cb9b",
        ),
        (
            "skew3", 20, Decoder.SPHERE_DECODER, 5, [6.0, 12.0, 18.0], 200000, 1000,
            "ff6cf33a57517aa7bb96a470cc09daa93db28d5aa94ca1319f12935c473fb17e",
        ),
        (
            "diag3", 5, Decoder.BRUTE_FORCE, 15, [4.0, 11.0, 18.0], 150001, 30000,
            "5eef075bd32d06f786edd0a20d68d7f5a15f50a870cdd91f9f62316cdb5ec5d1",
        ),
    ],
)
def test_simulation_csv_bytes(
    name, big_k, decoder, seed, snr_db, max_trials, target_errors, digest, threads, monkeypatch
):
    # Every search the simulator picks: the point table (A2 K = 4, E4
    # K = 2), diagonal generators decided entry by entry, with the point
    # table for their band rows (Z3; diag(2, -0.5, 1) with K = 5, whose
    # last point runs to the cap and ends in an 18929-row shard) and, for a
    # non-diagonal sphere decoder, the radius query with the sphere search
    # for its tie-band rows (A2 K = 128, 16384 points; E8 K = 4; the skewed
    # basis), with budgets that stop some points mid-wave at 3 threads,
    # some after several shards and some at the trial cap.  The E4 and
    # A2 K = 128 digests were recorded with the sphere search for every
    # open row, the E8 and skewed-basis ones with the sphere search for
    # every row the certificate left open, the Z3 one with every row
    # rounded by the decoder, and the diag3 one with every row the radii
    # left open decoded whole, so they also pin that the choice of search,
    # and deciding rounding entry by entry, change no byte.
    lattice = _lattice(name)
    chosen = sep_module._decoder(lattice.generator, big_k)
    assert chosen.method is decoder
    diagonal = sep_module._is_diagonal(lattice.generator)
    assert diagonal is (name in ("Z3", "diag3"))
    queried = []
    radius_query = BatchDecoder.radius_query

    def counting(self, u, e):
        queried.append(len(u))
        return radius_query(self, u, e)

    monkeypatch.setattr(BatchDecoder, "radius_query", counting)
    plan = SimPlan(
        constellation=FiniteConstellation(lattice, big_k),
        grid=SnrGrid.from_db_values(snr_db),
        seed=seed,
        max_trials=max_trials,
        target_errors=target_errors,
    )
    estimates = simulate_sep(plan, threads=threads)
    assert _digest(sep_csv_rows(estimates, plan.constellation, seed)) == digest
    assert bool(queried) is (decoder is Decoder.SPHERE_DECODER and not diagonal)
