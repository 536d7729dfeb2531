import logging

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import spinerecon as sr
from helpers import fsu_with_gap, readme_case, sheet_mesh, spine_with_unmeshed_facet
from spinerecon.facets import (
    GapReport,
    _signed_gaps,
    align_facets,
    elastic_warp,
    facet_gap_summary,
    identify_facet_pairs,
    measure_gap,
)
from spinerecon.mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_INFERIOR_RIGHT,
    LABEL_FACET_SUPERIOR_LEFT,
    TriangleMesh,
    center_of_mass,
)
from spinerecon.spine import SpineModel, Vertebra
from spinerecon.synthetic import SpineParams, generate_spine


def baseline_comparison_case(mode):
    """demos/04_baseline_comparison.py: noisy body-only targets, registered in `mode`."""
    spine, _ = sr.generate_spine(sr.SpineParams(ivd_heights=(5.0,) * 4, fsu_angles=(0.0,) * 4))
    targets, _, _ = sr.make_registration_case(
        spine, rotation_deg=6.0, translation_mm=6.0, scale_range=(0.95, 1.1),
        noise_sd=0.2, seed=19)
    bare = SpineModel(tuple(v.with_(landmarks=None, axes=None) for v in spine.vertebrae))
    return sr.register_spine(bare, targets, mode, icp_params=sr.IcpParams(max_iterations=60)).spine


def triangle_shape(vertices, triangles):
    """Areas, edge lengths and unit normals of the given triangles."""
    a, b, c = vertices[triangles].transpose(1, 0, 2)
    cross = np.cross(b - a, c - a)
    area = np.linalg.norm(cross, axis=1)
    edges = np.linalg.norm(np.stack([b - a, c - b, a - c], axis=1), axis=2)
    return 0.5 * area, edges, cross / area[:, None]


def assert_aligned_on_target(spine, caplog, falloff_radius=5.0, want=1.5):
    """Align; every pair must end within 0.05 mm of want with a positive least gap."""
    with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
        aligned, gaps = align_facets(spine, want, falloff_radius, 5)
    assert not caplog.records
    assert len(gaps) == len(spine) - 1
    for sides in gaps.values():
        assert sorted(sides) == ["left", "right"]
        for report in sides.values():
            assert abs(report["mean_gap_mm"] - want) <= 0.05
            assert report["min_gap_mm"] > 0
    # the returned gaps are those of the returned meshes
    assert gaps == facet_gap_summary(aligned)
    return aligned


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

    def test_facet_without_triangles_names_pair_side_and_vertebra(self):
        spine = spine_with_unmeshed_facet()
        want = (r"^facet pair L1-L2 \(left\): no triangle of L2 has all three corners labeled "
                r"as its superior-left facet; fix the region labels or pass --no-facets$")
        with pytest.raises(ValueError, match=want):
            align_facets(spine)
        # labeled meshes are measured, not skipped
        with pytest.raises(ValueError, match=want):
            facet_gap_summary(spine)
        default = r"^facet pair upper-lower \(left\): no triangle of lower has"
        with pytest.raises(ValueError, match=default):
            identify_facet_pairs(spine[0].mesh, spine[1].mesh)

    def test_contact_normal_points_lower_to_upper(self):
        for gap in (2.0, -0.8):
            spine = fsu_with_gap(gap)
            for pair in identify_facet_pairs(spine[0].mesh, spine[1].mesh):
                assert pair.contact_normal[2] > 0.5  # roughly +z even when interpenetrating

    @pytest.mark.parametrize("case", ["readme", "baseline_comparison"])
    def test_contact_normal_sign_matches_center_of_mass_axis(self, case):
        # the vertex-centroid hint orients the facet normal as the
        # area-weighted centers of mass would, and by a wide margin
        spine = readme_case() if case == "readme" else baseline_comparison_case("ours")
        for upper, lower in spine.pairs():
            axis = center_of_mass(upper.mesh) - center_of_mass(lower.mesh)
            axis /= np.linalg.norm(axis)
            for pair in identify_facet_pairs(upper.mesh, lower.mesh):
                assert pair.contact_normal @ axis > 0.5


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
        aligned, _ = align_facets(spine, target_width=gap)
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

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_region_index_out_of_range_rejected(self, spine_mesh, bad):
        # a negative index would otherwise wrap to the last vertices
        region = np.nonzero(spine_mesh.labels == 4)[0]
        region[0] = spine_mesh.n_vertices if bad == "n" else bad
        with pytest.raises(ValueError, match="region index out of range"):
            elastic_warp(spine_mesh, region, np.zeros(3), falloff_radius=5.0)

    def test_empty_region_leaves_vertices(self, spine_mesh):
        out = elastic_warp(spine_mesh, [], np.zeros(3), falloff_radius=5.0)
        np.testing.assert_array_equal(out.vertices, spine_mesh.vertices)

    def test_overflowing_warp_is_rejected(self):
        mesh = TriangleMesh([[0.0, 0.0, 1.7e308], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="vertex 0 has a non-finite"):
            elastic_warp(mesh, [0], np.array([0.0, 0.0, 1e308]), falloff_radius=5.0)


class TestAlignFacets:
    @pytest.mark.parametrize("gap", [-0.8, 0.5, 4.0])
    def test_converges_to_target(self, gap):
        spine = fsu_with_gap(gap)
        aligned, _ = align_facets(spine, target_width=1.5, falloff_radius=5.0, max_passes=5)
        for sides in facet_gap_summary(aligned).values():
            for report in sides.values():
                assert report["mean_gap_mm"] == pytest.approx(1.5, abs=0.2)
                assert report["min_gap_mm"] > 0

    def test_vertebral_body_untouched(self):
        spine = fsu_with_gap(4.0)
        aligned, _ = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            vb = before.mesh.labels == 1
            moved = np.linalg.norm(
                after.mesh.vertices[vb] - before.mesh.vertices[vb], axis=1)
            assert moved.max() < 1e-6

    def test_already_at_target_is_noop(self):
        spine = fsu_with_gap(1.5)
        aligned, _ = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            moved = np.linalg.norm(
                after.mesh.vertices - before.mesh.vertices, axis=1)
            assert moved.max() < 0.05

    def test_triangle_counts_preserved(self):
        spine = fsu_with_gap(-0.8)
        aligned, _ = align_facets(spine, 1.5, 5.0, 5)
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            np.testing.assert_array_equal(after.mesh.triangles, before.mesh.triangles)

    def test_per_pair_width_map(self):
        spine = fsu_with_gap(4.0)
        aligned, _ = align_facets(spine, {"L1-L2": 2.5}, 5.0, 5)
        for report in facet_gap_summary(aligned)["L1-L2"].values():
            assert report["mean_gap_mm"] == pytest.approx(2.5, abs=0.2)

    @pytest.mark.parametrize("width", [-1.0, 0.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_width_rejected(self, width):
        spine = fsu_with_gap(4.0)
        for target in (width, {"L1-L2": width}):
            with pytest.raises(ValueError, match="target_width for L1-L2 must be positive"):
                align_facets(spine, target, 5.0, 5)

    def test_no_pass_rejected(self):
        with pytest.raises(ValueError, match="max_passes must be at least 1"):
            align_facets(fsu_with_gap(4.0), 1.5, 5.0, max_passes=0)

    def test_nonconvergence_logs_warning(self, caplog):
        # one pass lands L1-L2, then L2-L3's 20 mm falloff drags it off again
        spine = fsu_with_gap(4.0, levels=5)
        with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
            _, gaps = align_facets(spine, 1.5, 20.0, max_passes=1)
        warned = {(r.args[0], r.args[1]) for r in caplog.records}
        off = {(name, side) for name, sides in gaps.items() for side, report in sides.items()
               if abs(report["mean_gap_mm"] - 1.5) > 0.05 or report["min_gap_mm"] <= 0}
        assert ("L1-L2", "left") in off
        assert warned == off

    def test_pass_that_lands_every_pair_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
            _, gaps = align_facets(fsu_with_gap(4.0), 1.5, 5.0, max_passes=1)
        assert not caplog.records
        for report in gaps["L1-L2"].values():
            assert report["mean_gap_mm"] == pytest.approx(1.5, abs=1e-9)

    def test_readme_case_converges_without_folding(self, caplog):
        # the library quick start: facet patches of adjacent levels under
        # different affines, so no shift along one normal fits them
        registered = readme_case()
        aligned = assert_aligned_on_target(registered, caplog)
        # the upper facets are slid and straightened, not crumpled: every
        # triangle keeps its area and edge lengths within 5% and its facing
        for before, after in zip(registered.vertebrae[:-1], aligned.vertebrae[:-1]):
            for label in (LABEL_FACET_INFERIOR_LEFT, LABEL_FACET_INFERIOR_RIGHT):
                tris = before.mesh.triangles[
                    np.all(before.mesh.labels[before.mesh.triangles] == label, axis=1)]
                a0, e0, n0 = triangle_shape(before.mesh.vertices, tris)
                a1, e1, n1 = triangle_shape(after.mesh.vertices, tris)
                np.testing.assert_allclose(a1, a0, rtol=0.05)
                np.testing.assert_allclose(e1, e0, rtol=0.05)
                assert np.all(np.einsum("ij,ij->i", n0, n1) > 0.9)

    def test_sides_sliding_past_each_other_converge(self, caplog):
        # 10 degrees and 10 mm per level: at L3-L4 the left inferior facet
        # slides 17 mm to within 6 mm of the right one's starting place;
        # warped one side at a time, the right facet's falloff drags it
        spine, _ = sr.generate_spine(sr.SpineParams(seed=1))
        targets, _, _ = sr.make_registration_case(
            spine, rotation_deg=10, translation_mm=10, scale_range=(0.9, 1.1), seed=101)
        assert_aligned_on_target(sr.register_spine(spine, targets, mode="ours").spine, caplog)

    @pytest.mark.parametrize("mode", ["ours", "ours_icp", "icp", "icp_vb"])
    def test_baseline_comparison_case_converges(self, mode, caplog):
        assert_aligned_on_target(baseline_comparison_case(mode), caplog)

    def test_interpenetrating_tilted_start_converges(self, caplog):
        # the upper vertebra tilted 12 degrees about its inferior facets'
        # centroid: they cut through the lower facets at a slant
        spine = fsu_with_gap(-1.0)
        mesh = spine[0].mesh
        center = mesh.vertices[mesh.labels >= LABEL_FACET_INFERIOR_LEFT].mean(axis=0)
        tilt = Rotation.from_euler("x", 12.0, degrees=True).as_matrix()
        tilted = TriangleMesh((mesh.vertices - center) @ tilt.T + center,
                              mesh.triangles, mesh.labels)
        spine = SpineModel((spine[0].with_(mesh=tilted), spine[1]))
        for report in facet_gap_summary(spine)["L1-L2"].values():
            assert report["max_gap_mm"] < 0
            assert report["max_gap_mm"] - report["min_gap_mm"] > 1.5
        assert_aligned_on_target(spine, caplog)

    def test_facet_overhanging_farther_than_the_width_converges(self, caplog):
        # each inferior facet turned 45 degrees in its plane: after the
        # slide its corners overhang the lower facet by 1.66 mm, more than
        # the width, and the rest of the facet sits closer to keep the mean
        spine = fsu_with_gap(4.0)
        mesh = spine[0].mesh
        verts = mesh.vertices.copy()
        turn = Rotation.from_euler("z", 45.0, degrees=True).as_matrix()
        for label in (LABEL_FACET_INFERIOR_LEFT, LABEL_FACET_INFERIOR_RIGHT):
            facet = mesh.labels == label
            center = verts[facet].mean(axis=0)
            verts[facet] = (verts[facet] - center) @ turn.T + center
        spine = SpineModel((spine[0].with_(mesh=TriangleMesh(verts, mesh.triangles, mesh.labels)),
                            spine[1]))
        aligned = assert_aligned_on_target(spine, caplog)
        for report in facet_gap_summary(aligned)["L1-L2"].values():
            assert report["max_gap_mm"] > 1.6
            assert report["min_gap_mm"] < 1.45
        # the corners are not left in the lower facet's plane, where
        # rounding would decide which side they are on
        upper, lower = aligned[0].mesh, aligned[1].mesh
        for pair in identify_facet_pairs(upper, lower):
            queries = upper.vertices[pair.upper_region]
            (closest,), _ = _signed_gaps([(pair, lower)], [queries])
            assert np.all((queries - closest) @ pair.contact_normal > 1e-6)

    def test_later_pair_falloff_is_swept_back(self, caplog):
        # with a 20 mm falloff, aligning L2-L3 drags L2's superior facets
        # and puts L1-L2 off target again; the next pass brings it back
        spine = fsu_with_gap(4.0, levels=5)
        first, _ = align_facets(SpineModel(spine.vertebrae[:2]), 1.5, 20.0, 5)
        for report in facet_gap_summary(first)["L1-L2"].values():
            assert abs(report["mean_gap_mm"] - 1.5) <= 0.05
        second, _ = align_facets(SpineModel((first[1], spine[2])), 1.5, 20.0, 5)
        for report in facet_gap_summary(SpineModel((first[0], second[0])))["L1-L2"].values():
            assert abs(report["mean_gap_mm"] - 1.5) > 0.05
        assert_aligned_on_target(spine, caplog, falloff_radius=20.0)

    def test_five_level_spine_all_pairs(self):
        params = SpineParams(fsu_angles=(0.0,) * 4, ivd_heights=(5.0,) * 4)
        spine = generate_spine(params)[0]
        aligned, _ = align_facets(spine, 1.5, 5.0, 5)
        summary = facet_gap_summary(aligned)
        assert sorted(summary) == ["L1-L2", "L2-L3", "L3-L4", "L4-L5"]
        for sides in summary.values():
            for report in sides.values():
                assert report["mean_gap_mm"] == pytest.approx(1.5, abs=0.2)
