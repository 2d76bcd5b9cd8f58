"""Design and trial-analysis toolkit for a cable-driven, clock-spring-assisted
wrist abduction-adduction exoskeleton joint.

The pipeline has three stages, usable from Python or the ``wristkit`` CLI:

1. simulate the gravity torque the joint must counter across arm postures
   (:mod:`wristkit.biomech`);
2. size a clock spring against the simulated demand and match it to an
   off-the-shelf catalog (:mod:`wristkit.springs`, with the spring, cable
   guide and gearmotor constants in :mod:`wristkit.transmission`);
3. analyze experiment trial logs into ROM/torque metrics, repeatability,
   Friedman statistics, and questionnaire summaries (:mod:`wristkit.trials`).
"""

from .biomech import (ArmPosture, BodySegment, KinematicConvention, LoadSpec,
                      MotionProfile, TorqueCurve, hand_mass_from_body,
                      sweep_torque_curve, wrist_reaction_moment)
from .config import ToolkitConfig, load_config
from .errors import ConfigError, DataError, DomainError, TrialRejected
from .springs import (CatalogSelection, LinearFit, SpringCatalogEntry,
                      catalog_match, derive_spring, fit_linear,
                      stiffness_to_nmm_per_deg, worst_case_select)
from .stats import chi2_survival
from .transmission import (CableRoute, Gearing, SpringSpec, capstan_transmit,
                           pretension_torque)
from .trials import (FriedmanResult, LikertResponse, TrialLog, TrialMeta,
                     TrialMetrics, aggregate_report, clean_interpolate,
                     friedman_test, joint_torque_estimate, likert_summary,
                     repeatability, rms_torque, rom_metrics, trial_metrics)

__version__ = "0.1.0"

__all__ = [
    "ArmPosture", "BodySegment", "CableRoute", "CatalogSelection", "ConfigError",
    "DataError", "DomainError", "FriedmanResult", "Gearing", "KinematicConvention",
    "LikertResponse", "LinearFit", "LoadSpec", "MotionProfile", "SpringCatalogEntry",
    "SpringSpec", "ToolkitConfig", "TorqueCurve", "TrialLog", "TrialMeta",
    "TrialMetrics", "TrialRejected", "aggregate_report", "capstan_transmit",
    "catalog_match", "chi2_survival", "clean_interpolate", "derive_spring",
    "fit_linear", "friedman_test", "hand_mass_from_body", "joint_torque_estimate",
    "likert_summary", "load_config", "pretension_torque", "repeatability",
    "rms_torque", "rom_metrics", "stiffness_to_nmm_per_deg", "sweep_torque_curve",
    "trial_metrics", "worst_case_select", "wrist_reaction_moment",
]
