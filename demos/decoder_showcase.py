"""Box-constrained closest-point search: brute force vs sphere decoder.

Maximum-likelihood detection of a carved constellation is the closest
vector problem restricted to coefficients in {0..K-1}**N.  The package
ships two decoders: an exhaustive tabulated search, and a sphere
decoder that enumerates all rows at once, level by level, and prunes by
partial distance, on diagonal generators too (the simulator rounds
those itself).  They return identical coefficients; their costs diverge
as the table grows.
"""

import time

import numpy as np

from latticesep import BatchDecoder, Decoder, catalog_lattice, closest_point, stream

K = 4
TRIALS = 5_000

for name in ("A2", "E4", "E8"):
    lattice = catalog_lattice(name)
    n = lattice.dimension
    rng = stream(2024, n)

    symbols = (rng.random((TRIALS, n)) * K).astype(np.int64)
    noise = rng.standard_normal((TRIALS, n)) * (0.5 * lattice.d_min)
    targets = symbols @ lattice.generator.T + noise

    t0 = time.perf_counter()
    brute = BatchDecoder(lattice.generator, K, Decoder.BRUTE_FORCE)
    decoded_brute = brute.decode(targets)
    t_brute = time.perf_counter() - t0

    t0 = time.perf_counter()
    sphere = BatchDecoder(lattice.generator, K, Decoder.SPHERE_DECODER)
    decoded_sphere = sphere.decode(targets)
    t_sphere = time.perf_counter() - t0

    mismatches = int(np.count_nonzero(np.any(decoded_brute != decoded_sphere, axis=1)))
    print(
        f"{name}: table {K**n:6d} points, {TRIALS} targets | "
        f"brute {t_brute:6.2f}s, sphere {t_sphere:6.2f}s, mismatches {mismatches}"
    )

# The scalar front end handles one vector at a time and accepts the same
# method switch; unconstrained search (box=None) is also available.
e4 = catalog_lattice("E4")
y = np.array([0.9, -0.3, 1.7, 0.2])
boxed = closest_point(e4.generator, y, box=K, method=Decoder.SPHERE_DECODER)
free = closest_point(e4.generator, y, method=Decoder.SPHERE_DECODER)
print(f"\nE4 target {y}: boxed coefficients {boxed}, unconstrained {free}")
