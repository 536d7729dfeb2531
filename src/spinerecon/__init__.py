"""spinerecon: 3D lumbar spine reconstruction from vertebral-body meshes.

The pipeline detects eight endplate landmarks per vertebral body,
derives a closed-form affine registration that maps complete atlas
vertebrae onto the patient-specific bodies, and elastically adjusts
facet-joint spacing. An evaluation harness measures point-to-model
distance, landmark error, and morphometric fidelity, and a synthetic
generator provides exact ground truth for all of it.
"""

__version__ = "0.1.0"

from .anatomy import (
    AxesEstimate,
    LandmarkSet,
    PATIENT_AXES,
    SpineCurve,
    VertebraFrame,
    compute_frame,
    detect_landmarks,
    detect_vertebra_landmarks,
    estimate_axes,
    extract_endplates,
    fit_spine_curve,
)
from .evaluation import (
    MorphometricRecord,
    RegistrationReport,
    evaluate_reconstruction,
    fsu_angle,
    ivd_height,
    landmark_mae,
    measure_morphometrics,
    point_to_model_distance,
    vb_dimensions,
)
from .facets import (
    FacetPair,
    GapReport,
    align_facets,
    elastic_warp,
    facet_gap_summary,
    identify_facet_pairs,
    measure_gap,
)
from .mesh import (
    SurfaceIndex,
    TriangleMesh,
    center_of_mass,
    closest_point_brute_force,
    connected_components,
    face_normals,
    principal_axes,
    submesh_by_label,
    transform_mesh,
)
from .meshio import MeshParseError, load_mesh, save_mesh
from .registration import (
    IcpParams,
    IcpResult,
    RegistrationRun,
    compute_registration,
    detect_spine_landmarks,
    frame_to_transform,
    icp_rigid,
    register_spine,
)
from .spine import SpineModel, Vertebra, load_landmarks, save_landmarks
from .synthetic import (
    SpineParams,
    VertebraParams,
    default_vertebra_params,
    generate_spine,
    generate_vertebra,
    make_registration_case,
)
