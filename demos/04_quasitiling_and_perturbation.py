"""Quasitiling a window and perturbing a compression on it.

Compressions of invertible symbols can be singular (the shift u is the
standard example), which breaks the naive finite-section limit.  The cure
is a low-rank perturbation: quasitile the window, keep f on tile
interiors, and fill each tile complement with a rational near-orthonormal
basis of the orthogonal complement of f C[interior].  The perturbed
operator is block-invertible, integer-friendly after clearing one
denominator, and its normalized log-determinant has the same limit.
"""

import math

import grdet as G

Z = G.integer_lattice(1)
f = G.ring_element(Z, {(0,): 3, (1,): 1, (-1,): 1})

# greedy quasitiling: two tile shapes, epsilon-disjoint placement
F = G.window_from_coords(Z, [(i,) for i in range(100)])
tiles = [G.window_from_coords(Z, [(i,) for i in range(7)]),
         G.window_from_coords(Z, [(i,) for i in range(3)])]
tiling = G.quasitile(F, tiles, 0.1, mode="epsilon-disjoint")
G.verify_tiling(tiling)
print(f"window of 100, tiles of 7 and 3: coverage {float(tiling.coverage):.3f} "
      f"with {len(tiling.placements)} placements")

# the structured perturbation on a small window
F10 = G.window_from_coords(Z, [(i,) for i in range(10)])
tile5 = G.window_from_coords(Z, [(i,) for i in range(5)])
pc = G.build_perturbed_compression(f, F10, [tile5], 0.8)
print(f"\nperturbed compression on 10 points: rank defect {pc.rank_defect}, "
      f"denominator {pc.denominator}")
for t in pc.transfers:
    print(f"  tile {t.tile_index}: transfer norm {t.norm:.3f}, "
          f"inverse norm {t.inverse_norm:.3f} (both must stay below 2)")
print(f"  log|det S| = {G.logabsdet(pc.compression):.6f}")

# the random unit-column study: the limit ignores rank-o(|F|) perturbations
cert = G.certify_invertible(f, "positive-gap")
sch = [G.folner_window(Z, 1000)]
exact = math.log((3 + math.sqrt(5)) / 2)
for seed in (1, 2):
    tab = G.perturbation_study(f, sch, 0.02, seed=seed, certificate=cert)
    v = tab.values()[0]
    print(f"seed {seed}: perturbed value {v:.6f} (oracle {exact:.6f}, "
          f"drift {abs(v - exact):.4f})")
