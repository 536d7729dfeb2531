"""
Noise robustness of the landmark pipeline
=========================================

Segmentation meshes are bumpy. This sweep jitters target vertices with
increasing Gaussian noise and reports the landmark error of the full
detection + registration pipeline against the known true transforms.
The bridged connectivity filter in endplate extraction is what keeps
the plates intact once normals get noisy.
"""

import numpy as np

from spinerecon import (
    SpineModel,
    SpineParams,
    generate_spine,
    landmark_mae,
    make_registration_case,
    register_spine,
)

spine, _ = generate_spine(SpineParams(ivd_heights=(5.0,) * 4, fsu_angles=(0.0,) * 4))

print("noise sd (mm)   landmark MAE mean / max over levels (mm)")
for noise in (0.0, 0.1, 0.25, 0.5):
    targets, ground_truth, _ = make_registration_case(
        spine, rotation_deg=15.0, translation_mm=20.0, scale_range=(0.9, 1.1),
        noise_sd=noise, seed=3)
    bare = SpineModel(tuple(
        v.with_(landmarks=None, axes=None) for v in spine.vertebrae))
    run = register_spine(bare, targets, "ours")
    errors = [landmark_mae(v.landmarks, t.landmarks)
              for v, t in zip(run.spine.vertebrae, ground_truth.vertebrae)]
    print(f"   {noise:4.2f}         {np.mean(errors):8.4f} / {np.max(errors):8.4f}")
