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

A public name loads its module on first use.  :mod:`wristkit.trials` and
:mod:`wristkit.stats` sit unrun in ``sys.modules`` until one of their names is
first read, so ``simulate``, ``fit`` and ``report`` never run them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_HOME = {name: module for module, names in {  # public name -> the module that defines it
    "biomech": "ArmPosture BodySegment KinematicConvention LoadSpec MotionProfile TorqueCurve "
               "hand_mass_from_body moment_coefficients sweep_torque_curve wrist_reaction_moment",
    "config": "ToolkitConfig load_config", "stats": "chi2_survival",
    "errors": "ConfigError DataError DomainError TrialRejected",
    "springs": "CatalogSelection LinearFit SpringCatalogEntry catalog_match derive_spring "
               "fit_linear stiffness_to_nmm_per_deg worst_case_select",
    "transmission": "CableRoute Gearing SpringSpec capstan_transmit pretension_torque",
    "trials": "FriedmanResult LikertResponse TrialLog TrialMeta TrialMetrics aggregate_report "
              "clean_interpolate friedman_test joint_torque_estimate likert_summary "
              "repeatability rms_torque rom_metrics trial_metrics",
}.items() for name in names.split()}
__all__ = sorted(_HOME)

for _name in ("stats", "trials"):  # unrun in sys.modules: the code runs on first attribute use
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return [*globals(), *__all__]
