"""The public API surface: everything README promises is importable and
wired together."""

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_readme_quickstart_flow(self):
        points = repro.uniform_points(n=60, dim=4, seed=7)
        index = repro.NNCellIndex.build(
            points, repro.BuildConfig(selector=repro.SelectorKind.SPHERE)
        )
        neighbor_id, distance, info = index.nearest(np.full(4, 0.5))
        assert 0 <= neighbor_id < 60
        assert distance >= 0.0
        assert info.n_candidates >= 1
        new_id = index.insert(np.full(4, 0.25))
        index.delete(new_id)

    def test_default_build_config(self):
        config = repro.BuildConfig()
        assert config.selector is repro.SelectorKind.SPHERE
        assert not config.decompose

    def test_baselines_available(self):
        points = repro.uniform_points(30, 3, seed=8)
        tree = repro.XTree(3)
        repro.bulk_load(tree, points, points, np.arange(30))
        result = repro.rkv_nearest(tree, np.full(3, 0.5))
        scan = repro.LinearScan(points)
        assert result.nearest_id == scan.nearest(np.full(3, 0.5)).nearest_id

    def test_dataset_registry_roundtrip(self):
        pts = repro.make_dataset("clustered", n=20, dim=3, seed=1)
        assert pts.shape == (20, 3)

    def test_selector_kinds_match_paper(self):
        assert {k.value for k in repro.SelectorKind} == {
            "correct", "point", "sphere", "nn-direction",
        }

    def test_quality_metrics_exported(self):
        box = repro.MBR.unit_cube(2)
        rects = [
            repro.MBR([0.0, 0.0], [0.5, 1.0]),
            repro.MBR([0.5, 0.0], [1.0, 1.0]),
        ]
        assert repro.expected_candidates(rects, box) == pytest.approx(1.0)
        assert repro.average_overlap(rects, box) == pytest.approx(0.0)
