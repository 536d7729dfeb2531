import logging

import numpy as np
import pytest

from helpers import sheet_mesh
from spinerecon.facets import (
    GapReport,
    align_facets,
    elastic_warp,
    facet_gap_summary,
    identify_facet_pairs,
    measure_gap,
)
from spinerecon.mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_SUPERIOR_LEFT,
    TriangleMesh,
)
from spinerecon.spine import SpineModel, Vertebra
from spinerecon.synthetic import (
    FACET_DROP_MM,
    SpineParams,
    default_vertebra_params,
    expected_facet_gap,
    generate_spine,
)


def fsu_with_gap(gap_mm: float, ivd: float = 5.0):
    """Two-level straight stack whose facet gaps equal gap_mm by construction."""
    offset = ivd - FACET_DROP_MM - gap_mm
    params = SpineParams(
        vertebrae=(default_vertebra_params("L1", facet_gap_offset=offset),
                   default_vertebra_params("L2")),
        ivd_heights=(ivd,),
        fsu_angles=(0.0,),
    )
    assert expected_facet_gap(params, 0) == pytest.approx(gap_mm)
    return generate_spine(params)[0]


class TestIdentifyFacetPairs:
    def test_labeled_fsu_yields_two_pairs(self):
        spine = fsu_with_gap(2.0)
        pairs = identify_facet_pairs(spine[0].mesh, spine[1].mesh)
        assert sorted(p.side for p in pairs) == ["left", "right"]

    def test_unlabeled_lower_rejected(self):
        spine = fsu_with_gap(2.0)
        lower = spine[1].mesh
        bare = TriangleMesh(lower.vertices, lower.triangles)
        with pytest.raises(ValueError, match="labeled atlas meshes"):
            identify_facet_pairs(spine[0].mesh, bare)

    def test_missing_one_label_gives_single_pair(self):
        spine = fsu_with_gap(2.0)
        upper = spine[0].mesh
        labels = upper.labels.copy()
        labels[labels == 4] = 0  # drop the left inferior facet
        upper = TriangleMesh(upper.vertices, upper.triangles, labels)
        pairs = identify_facet_pairs(upper, spine[1].mesh)
        assert [p.side for p in pairs] == ["right"]

    def test_contact_normal_points_lower_to_upper(self):
        for gap in (2.0, -0.8):
            spine = fsu_with_gap(gap)
            for pair in identify_facet_pairs(spine[0].mesh, spine[1].mesh):
                assert pair.contact_normal[2] > 0.5  # roughly +z even when interpenetrating


class TestMeasureGap:
    def test_parallel_plates_two_mm(self):
        spine = fsu_with_gap(2.0)
        for pair in identify_facet_pairs(spine[0].mesh, spine[1].mesh):
            report = measure_gap(pair, spine[0].mesh, spine[1].mesh)
            assert report.mean_gap == pytest.approx(2.0, abs=0.01 + 0.05)
            assert report.min_gap == pytest.approx(2.0, abs=1e-9)
            assert report.sample_count == 9

    def test_interpenetration_is_negative(self):
        spine = fsu_with_gap(-0.5)
        for pair in identify_facet_pairs(spine[0].mesh, spine[1].mesh):
            report = measure_gap(pair, spine[0].mesh, spine[1].mesh)
            assert report.mean_gap == pytest.approx(-0.5, abs=0.05)

    def test_coincident_plates_near_zero(self):
        spine = fsu_with_gap(0.0)
        for pair in identify_facet_pairs(spine[0].mesh, spine[1].mesh):
            report = measure_gap(pair, spine[0].mesh, spine[1].mesh)
            assert abs(report.mean_gap) < 1e-9

    def test_uniform_gap_reports_one_value(self):
        # the float mean of nine copies of this gap rounds above it
        gap = 1.7795540617506418

        def patch(level, z, label):
            sheet = sheet_mesh(8.0, 8.0, nx=3, ny=3, center=(0.0, 0.0, z))
            labels = np.full(sheet.n_vertices, label)
            return Vertebra(level, TriangleMesh(sheet.vertices, sheet.triangles, labels))

        spine = SpineModel((patch("L1", gap, LABEL_FACET_INFERIOR_LEFT),
                            patch("L2", 0.0, LABEL_FACET_SUPERIOR_LEFT)))
        assert facet_gap_summary(spine)["L1-L2"]["left"] == {
            "mean_gap_mm": gap, "min_gap_mm": gap, "max_gap_mm": gap, "sample_count": 9}
        aligned = align_facets(spine, target_width=gap)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            np.testing.assert_array_equal(after.mesh.vertices, before.mesh.vertices)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError, match="min <= mean <= max"):
            GapReport(mean_gap=3.0, min_gap=1.0, max_gap=2.0, sample_count=4)


class TestElasticWarp:
    @pytest.fixture()
    def spine_mesh(self):
        return fsu_with_gap(2.0)[0].mesh

    def test_zero_displacement_is_identity(self, spine_mesh):
        region = np.nonzero(spine_mesh.labels == 4)[0]
        out = elastic_warp(spine_mesh, region, np.zeros(3), falloff_radius=5.0)
        np.testing.assert_array_equal(out.vertices, spine_mesh.vertices)

    def test_isolated_patch_moves_distals_negligibly(self, spine_mesh):
        region = np.nonzero(spine_mesh.labels == 4)[0]
        u = np.array([0.0, 0.0, 2.0])
        out = elastic_warp(spine_mesh, region, u, falloff_radius=5.0)
        moved = np.linalg.norm(out.vertices - spine_mesh.vertices, axis=1)
        np.testing.assert_allclose(out.vertices[region],
                                   spine_mesh.vertices[region] + u)
        # vertices farther than 5 radii see < 1e-10 * |u|
        from scipy.spatial import cKDTree
        d, _ = cKDTree(spine_mesh.vertices[region]).query(spine_mesh.vertices)
        far = d > 25.0
        assert moved[far].max() < 1e-10 * np.linalg.norm(u)

    def test_vertex_touching_region_gets_full_mean(self, spine_mesh):
        # a non-region vertex coincident with a region vertex: w(0) = 1
        region = np.nonzero(spine_mesh.labels == 4)[0][:-1]
        dropped = np.nonzero(spine_mesh.labels == 4)[0][-1]
        clone = spine_mesh.vertices.copy()
        clone[dropped] = spine_mesh.vertices[region[0]]
        mesh = TriangleMesh(clone, spine_mesh.triangles, spine_mesh.labels)
        u = np.array([1.0, 0.0, 0.0])
        out = elastic_warp(mesh, region, u, falloff_radius=5.0)
        np.testing.assert_allclose(out.vertices[dropped] - mesh.vertices[dropped], u,
                                   atol=1e-12)

    def test_connectivity_preserved(self, spine_mesh):
        region = np.nonzero(spine_mesh.labels == 5)[0]
        out = elastic_warp(spine_mesh, region, np.array([0, 0, 1.0]), falloff_radius=5.0)
        np.testing.assert_array_equal(out.triangles, spine_mesh.triangles)
        np.testing.assert_array_equal(out.labels, spine_mesh.labels)

    def test_displacement_shape_checked(self, spine_mesh):
        region = np.nonzero(spine_mesh.labels == 4)[0]
        with pytest.raises(ValueError, match="displacement shape"):
            elastic_warp(spine_mesh, region, np.zeros((3, 3)), falloff_radius=5.0)


class TestAlignFacets:
    @pytest.mark.parametrize("gap", [-0.8, 0.5, 4.0])
    def test_converges_to_target(self, gap):
        spine = fsu_with_gap(gap)
        aligned = align_facets(spine, target_width=1.5, falloff_radius=5.0, max_passes=5)
        for sides in facet_gap_summary(aligned).values():
            for report in sides.values():
                assert report["mean_gap_mm"] == pytest.approx(1.5, abs=0.2)
                assert report["min_gap_mm"] > 0

    def test_vertebral_body_untouched(self):
        spine = fsu_with_gap(4.0)
        aligned = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            vb = before.mesh.labels == 1
            moved = np.linalg.norm(
                after.mesh.vertices[vb] - before.mesh.vertices[vb], axis=1)
            assert moved.max() < 1e-6

    def test_already_at_target_is_noop(self):
        spine = fsu_with_gap(1.5)
        aligned = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            moved = np.linalg.norm(
                after.mesh.vertices - before.mesh.vertices, axis=1)
            assert moved.max() < 0.05

    def test_triangle_counts_preserved(self):
        spine = fsu_with_gap(-0.8)
        aligned = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            np.testing.assert_array_equal(after.mesh.triangles, before.mesh.triangles)

    def test_per_pair_width_map(self):
        spine = fsu_with_gap(4.0)
        aligned = align_facets(spine, {"L1-L2": 2.5}, 5.0, 5)
        for report in facet_gap_summary(aligned)["L1-L2"].values():
            assert report["mean_gap_mm"] == pytest.approx(2.5, abs=0.2)

    @pytest.mark.parametrize("width", [-1.0, 0.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_width_rejected(self, width):
        spine = fsu_with_gap(4.0)
        for target in (width, {"L1-L2": width}):
            with pytest.raises(ValueError, match="target_width for L1-L2 must be positive"):
                align_facets(spine, target, 5.0, 5)

    def test_nonconvergence_logs_warning(self, caplog):
        spine = fsu_with_gap(4.0)
        with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
            align_facets(spine, 1.5, 5.0, max_passes=1)
        assert any("did not converge" in r.message for r in caplog.records)

    def test_five_level_spine_all_pairs(self):
        params = SpineParams(fsu_angles=(0.0,) * 4, ivd_heights=(5.0,) * 4)
        spine = generate_spine(params)[0]
        aligned = align_facets(spine, 1.5, 5.0, 5)
        summary = facet_gap_summary(aligned)
        assert sorted(summary) == ["L1-L2", "L2-L3", "L3-L4", "L4-L5"]
        for sides in summary.values():
            for report in sides.values():
                assert report["mean_gap_mm"] == pytest.approx(1.5, abs=0.2)
