"""
Elastic facet-joint spacing
===========================

After per-vertebra registration the articular processes of adjacent
vertebrae may overlap or gape. Each labeled facet pair is measured and
the upper vertebra's facet is warped onto the configured joint width,
slid over the lower facet and each vertex set along its normal, with a
smooth Gaussian falloff; vertebral bodies sit several falloff radii away
and do not move.
"""

import numpy as np

from spinerecon import SpineParams, align_facets, facet_gap_summary, generate_spine
from spinerecon.synthetic import FACET_DROP_MM, default_vertebra_params

# construct initial facet gaps of -0.8 (overlap), 0.5, and 4.0 mm
for initial_gap in (-0.8, 0.5, 4.0):
    offset = 5.0 - FACET_DROP_MM - initial_gap
    params = SpineParams(
        vertebrae=(default_vertebra_params("L1", facet_gap_offset=offset),
                   default_vertebra_params("L2")),
        ivd_heights=(5.0,), fsu_angles=(0.0,))
    spine, _ = generate_spine(params)

    before = facet_gap_summary(spine)["L1-L2"]
    aligned, gaps = align_facets(spine, target_width=1.5, falloff_radius=5.0, max_passes=5)
    after = gaps["L1-L2"]

    print(f"initial gap {initial_gap:+.1f} mm")
    for side in ("left", "right"):
        print(f"  {side:5s}: {before[side]['mean_gap_mm']:+7.3f} mm -> "
              f"{after[side]['mean_gap_mm']:+7.3f} mm "
              f"(min {after[side]['min_gap_mm']:+.3f})")

    vb = spine[0].mesh.labels == 1
    moved = np.linalg.norm(
        aligned[0].mesh.vertices[vb] - spine[0].mesh.vertices[vb], axis=1).max()
    print(f"  body vertices moved at most {moved:.2e} mm\n")
