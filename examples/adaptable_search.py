"""User-adaptable similarity search with weighted metrics + persistence.

Run:  python examples/adaptable_search.py

The ICDE-98 group's companion work (Seidl & Kriegel) lets users *re-weight*
feature dimensions to express what "similar" means — e.g. an apparel
search where one shopper cares about colour and another about texture.
Because weighted-Euclidean bisectors are still hyperplanes, the NN-cell
precomputation works per weight profile; this example builds one solution
space per profile, shows how the same query returns different (exact)
matches, and round-trips the default index through save/load.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BuildConfig,
    NNCellIndex,
    SelectorKind,
    WeightedNNCellIndex,
    clustered_points,
    load_index,
    save_index,
)

N_ITEMS = 150
# Feature layout: [colour hue, colour saturation, texture coarseness]
PROFILES = {
    "balanced": np.array([1.0, 1.0, 1.0]),
    "colour-focused": np.array([8.0, 8.0, 0.2]),
    "texture-focused": np.array([0.2, 0.2, 10.0]),
}


def main() -> None:
    rng = np.random.default_rng(31)
    catalogue = clustered_points(N_ITEMS, 3, n_clusters=6, seed=13)
    print(f"catalogue: {N_ITEMS} items, 3-d features "
          "(hue, saturation, texture)\n")

    indexes = {
        name: WeightedNNCellIndex(catalogue, weights, max_constraints=20)
        for name, weights in PROFILES.items()
    }

    query = rng.uniform(0.2, 0.8, size=3)
    print(f"query features: {np.round(query, 3)}")
    for name, index in indexes.items():
        item, dist = index.nearest(query)
        print(f"  {name:16s} -> item {item:3d} "
              f"(weighted distance {dist:.4f}, "
              f"features {np.round(catalogue[item], 3)})")

    # Different profiles may pick different items — verify each is exact
    # under its own metric.
    for name, index in indexes.items():
        w = PROFILES[name]
        item, dist = index.nearest(query)
        brute = np.sqrt(((catalogue - query) ** 2 @ w))
        assert abs(dist - brute.min()) < 1e-9
    print("\nall three profiles verified exact under their own metrics")

    # The unweighted solution space persists across sessions.
    plain = NNCellIndex.build(
        catalogue, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "catalogue_index.nnc"
        save_index(plain, archive)
        restored = load_index(archive)
        a = plain.nearest(query)[0]
        b = restored.nearest(query)[0]
        assert a == b
        size_kb = archive.stat().st_size / 1024
        print(f"saved + reloaded the solution space "
              f"({size_kb:.0f} KiB archive); answers identical")


if __name__ == "__main__":
    main()
