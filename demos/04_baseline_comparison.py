"""
Comparing registration modes
============================

The landmark method against its baselines on one synthetic case:
  ours      closed-form landmark affine
  ours_icp  the affine refined by rigid ICP of the body surface
  icp       rigid ICP of the full atlas mesh from identity
  icp_vb    rigid ICP of the body submesh, applied to the whole mesh

The ICP baselines start from identity and fit the complete (or
body-only) atlas to the body-only target: with anisotropic per-level
scaling in the truth they cannot represent the answer, which is the
point of the comparison.
"""

from spinerecon import (
    IcpParams,
    SpineModel,
    SpineParams,
    evaluate_reconstruction,
    generate_spine,
    make_registration_case,
    register_spine,
)
from spinerecon.evaluation import write_report_csv

spine, _ = generate_spine(SpineParams(ivd_heights=(5.0,) * 4, fsu_angles=(0.0,) * 4))
targets, ground_truth, _ = make_registration_case(
    spine, rotation_deg=6.0, translation_mm=6.0, scale_range=(0.95, 1.1),
    noise_sd=0.2, seed=19)
bare = SpineModel(tuple(
    v.with_(landmarks=None, axes=None) for v in spine.vertebrae))
gt_landmarks = [v.landmarks for v in ground_truth.vertebrae]

reports = []
for mode in ("ours", "ours_icp", "icp", "icp_vb"):
    run = register_spine(bare, targets, mode,
                         icp_params=IcpParams(max_iterations=60))
    report = evaluate_reconstruction(run.spine, ground_truth, gt_landmarks,
                                     mode=mode, elapsed_s=run.elapsed_s)
    reports.append(report)
    print(f"{mode:8s}  p2m_vb {report.p2m_vb_mean:7.3f} mm   "
          f"p2m_full {report.p2m_full_mean:7.3f} mm   "
          f"landmarks {report.landmark_mae_mean:7.3f} mm   "
          f"time {run.elapsed_s:6.2f} s")

write_report_csv(reports, "/tmp/spinerecon_demo_modes.csv")
print("\nwrote /tmp/spinerecon_demo_modes.csv")
print("note: landmark error separates the methods most sharply, matching the "
      "role of the eight points in the closed-form construction")
