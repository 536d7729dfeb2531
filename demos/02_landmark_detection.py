"""
Endplate landmark detection
===========================

The eight landmarks of a vertebral body come from its endplates: the
local axes are the principal axes of the body surface, triangles
whose normals align with the longitudinal axis form the plate
candidates, a connectivity filter keeps the plate itself, and the
outermost slab vertices along the anatomical planes become the
landmarks.
"""

import numpy as np

from spinerecon import (
    PATIENT_AXES,
    detect_landmarks,
    estimate_axes,
    extract_endplates,
    generate_vertebra,
)
from spinerecon.synthetic import default_vertebra_params

mesh, truth, _ = generate_vertebra(
    default_vertebra_params("L3", with_posterior=False))
print(f"body mesh: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")

# step 1: local axes from the principal axes (the hint resolves identity/sign)
axes = estimate_axes(mesh, orientation_hint=PATIENT_AXES)
print("lateral     ", axes.lateral.round(6))
print("anterior    ", axes.anterior.round(6))
print("longitudinal", axes.longitudinal.round(6))

# step 2: endplates by normal similarity + connectivity
superior, inferior = extract_endplates(mesh, axes, cos_threshold=0.8)
print(f"\nsuperior plate: {superior.n_triangles} triangles, "
      f"inferior plate: {inferior.n_triangles} triangles")

# step 3: slab extremes along the anatomical planes
landmarks = detect_landmarks(superior, inferior, axes)
print("\ndetected vs ground truth (mm)")
for name in ("l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"):
    got = getattr(landmarks, name)
    want = getattr(truth, name)
    print(f"  {name}: {np.round(got, 3)}   error "
          f"{np.linalg.norm(got - want):.2e}")
