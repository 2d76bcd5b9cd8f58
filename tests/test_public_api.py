import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wristkit
from wristkit.errors import Record


def test_every_exported_name_resolves():
    missing = [name for name in wristkit.__all__ if not hasattr(wristkit, name)]
    assert missing == []
    assert len(set(wristkit.__all__)) == len(wristkit.__all__)


def test_star_import():
    namespace = {}
    exec("from wristkit import *", namespace)
    assert set(wristkit.__all__) <= namespace.keys()


def test_every_exported_name_is_its_home_modules_object():
    for name in wristkit.__all__:
        value = getattr(wristkit, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("wristkit."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_exported_name():
    assert set(wristkit.__all__) <= set(dir(wristkit))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'wristkit' has no attribute 'no_such_name'"):
        wristkit.no_such_name


def test_a_bare_import_runs_no_submodule():
    code = ("import sys, types, wristkit\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if name.startswith('wristkit.') and type(module) is types.ModuleType),\n"
            "      'numpy' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[] False\n"), done.stderr


# Each public value type: a sample's constructor arguments, its exact repr, and the
# defaults of its trailing fields.  Every other field is required.
_MEMBER = wristkit.SpringCatalogEntry("S1", 10.66)
_META = wristkit.TrialMeta("P1", "POS1", "unloaded", "S1", 1)
_RECORDS = [
    (wristkit.BodySegment, ("hand", 0.6, 0.19, 0.5), {},
     "BodySegment(name='hand', mass=0.6, length=0.19, com_ratio=0.5)"),
    (wristkit.ArmPosture, (0.5, 1.0, 1.5, "P1"), {"label": ""},
     "ArmPosture(shoulder_flexion=0.5, elbow_flexion=1.0, forearm_pronation=1.5, label='P1')"),
    (wristkit.LoadSpec, (0.5, 0.08), {}, "LoadSpec(handheld_mass=0.5, grip_offset=0.08)"),
    (wristkit.MotionProfile, (-0.125, 0.625), {},
     "MotionProfile(mean_angle=-0.125, amplitude=0.625)"),
    (wristkit.KinematicConvention, (0.5, 0.25, 0.125),
     {"axis_obliquity": 0.8726646259971648, "grip_extension": 0.3490658503988659,
      "carrying_angle": 0.17453292519943295},
     "KinematicConvention(axis_obliquity=0.5, grip_extension=0.25, carrying_angle=0.125)"),
    (wristkit.TorqueCurve, ([0.25], [1.5], "P1"), {"posture_label": ""},
     "TorqueCurve(angles=array([0.25]), moments=array([1.5]), posture_label='P1')"),
    (wristkit.LinearFit, (-1.5, 0.25, 0.875, 50), {},
     "LinearFit(slope=-1.5, intercept=0.25, r_squared=0.875, n_points=50)"),
    (wristkit.SpringCatalogEntry, ("S2", 11.71), {},
     "SpringCatalogEntry(name='S2', stiffness=11.71)"),
    (wristkit.CatalogSelection, (_MEMBER, None, _MEMBER), {},
     "CatalogSelection(nominal=SpringCatalogEntry(name='S1', stiffness=10.66), softer=None, "
     "stiffer=SpringCatalogEntry(name='S1', stiffness=10.66))"),
    (wristkit.SpringSpec, (0.75, 0.125, 0.5), {"pre_wind": None},
     "SpringSpec(stiffness=0.75, neutral_angle=0.125, pre_wind=0.5)"),
    (wristkit.CableRoute, (0.25, 2.0), {"friction_mu": 0.04, "wrap_angle": 3.141592653589793},
     "CableRoute(friction_mu=0.25, wrap_angle=2.0)"),
    (wristkit.Gearing, (64.0, 0.5, 0.25),
     {"ratio": 128.0, "efficiency": 0.78, "torque_constant": 0.0105},
     "Gearing(ratio=64.0, efficiency=0.5, torque_constant=0.25)"),
    (wristkit.ToolkitConfig, ({}, None, 9.81, {}, None, None, None, (_MEMBER,), None,
                              (-60.0, 45.0), 0.05), {},
     "ToolkitConfig(segments={}, convention=None, gravity=9.81, postures={}, motion=None, "
     "load=None, gearing=None, catalog=(SpringCatalogEntry(name='S1', stiffness=10.66),), "
     "pre_wind=None, angle_bounds=(-60.0, 45.0), max_interpolated_fraction=0.05)"),
    (wristkit.TrialMeta, ("P1", "POS2", "loaded_300g", "S3", 4), {},
     "TrialMeta(participant='P1', posture='POS2', load='loaded_300g', spring='S3', "
     "trial_index=4)"),
    (wristkit.TrialLog, ([0.0], [1.5], [2.5], ("B2",), _META), {"meta": None},
     "TrialLog(time=array([0.]), angle_deg=array([1.5]), current_ma=array([2.5]), "
     "button=('B2',), meta=TrialMeta(participant='P1', posture='POS1', load='unloaded', "
     "spring='S1', trial_index=1))"),
    (wristkit.TrialMetrics, (10.0, 5.0, 15.0, 0.25, 100, 0.0, _META), {"meta": None},
     "TrialMetrics(rom_ab=10.0, rom_ad=5.0, rom_total=15.0, tau_rms=0.25, n_samples=100, "
     "interpolated_fraction=0.0, meta=TrialMeta(participant='P1', posture='POS1', "
     "load='unloaded', spring='S1', trial_index=1))"),
    (wristkit.FriedmanResult, (3.25, 0.5, 2), {}, "FriedmanResult(chi2=3.25, p_value=0.5, df=2)"),
    (wristkit.LikertResponse, ("P1", "size", 3), {},
     "LikertResponse(participant='P1', item='size', score=3)"),
]


@pytest.mark.parametrize("cls, args, defaults, text", _RECORDS,
                         ids=[cls.__name__ for cls, *_ in _RECORDS])
def test_a_value_type_is_a_frozen_record_compared_by_value(cls, args, defaults, text):
    params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    fields = tuple(name for name, _ in params)
    assert len(fields) == len(args) and cls.__match_args__ == fields
    assert params == [(name, defaults.get(name, inspect.Parameter.empty)) for name in fields]

    record = cls(*args)
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields)
    for same in (cls(**dict(zip(fields, args))), cls(*args[:1], **dict(zip(fields[1:], args[1:]))),
                 copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert same == record and not same != record
        assert tuple(getattr(same, name) for name in fields) == values
    short = cls(*args[:len(args) - len(defaults)])
    assert tuple(getattr(short, name) for name in defaults) == tuple(defaults.values())
    try:
        hash(values)
    except TypeError:   # a field holds an array or a dict, so the record has no hash either
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*args)) == hash(values)
        assert len({record, cls(*args)}) == 1

    sub = type(cls.__name__, (cls,), {})(*args)
    assert record != values and record != sub and sub != record and not record == sub

    for name in {fields[0], fields[-1]}:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values


def test_a_record_keeps_no_instance_dict():
    assert [cls.__name__ for cls, args, *_ in _RECORDS if hasattr(cls(*args), "__dict__")] == []


# The records whose fields hold arrays, at 2 and 3 samples: a 1-sample array answers a tuple
# compare, a longer one refuses ("truth value ... ambiguous", "could not be broadcast")
def _curve(n, label="P1", bump=0.0):
    return wristkit.TorqueCurve([0.25 * i for i in range(n)], [1.5 + i + bump for i in range(n)],
                                label)


def _log(n, meta=_META, bump=0.0):
    return wristkit.TrialLog([0.01 * i for i in range(n)], [1.5 + i + bump for i in range(n)],
                             [2.5] * n, ("B2",) * n, meta)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [_curve, _log], ids=["TorqueCurve", "TrialLog"])
def test_a_record_with_arrays_is_compared_by_shape_and_element(build, n):
    record = build(n)
    for same in (build(n), copy.copy(record), pickle.loads(pickle.dumps(record)), record):
        assert same == record and not same != record
    for other in (build(n, bump=1e-9), build(n + 1), build(n - 1), build(n, None)):
        assert other != record and not other == record and not record == other
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_a_nan_sample_is_unequal_as_a_nan_float_field_is():
    first, second = (wristkit.TrialLog([0.0, 0.01, 0.02], [1.5, float("nan"), 2.5], [2.5] * 3,
                                       ("",) * 3) for _ in range(2))
    assert first != second and not first == second
    assert first == first  # as in a tuple, an object is equal to itself
    assert (wristkit.FriedmanResult(float("nan"), 0.5, 2)
            != wristkit.FriedmanResult(float("nan"), 0.5, 2))


def test_every_record_has_the_one_equality():
    assert [cls.__name__ for cls, *_ in _RECORDS if cls.__eq__ is not Record.__eq__] == []


# How a field is declared does not change how it compares: an array field equals only an
# array of its shape whose every element is equal, under any annotation or none
def test_an_array_field_under_postponed_annotations_is_compared_by_element():
    from deferred_records import Deferred
    assert Deferred.__annotations__ == {"samples": "np.ndarray", "label": "str"}
    record = Deferred(np.array([1.0, 2.0]), "a")
    assert record == Deferred(np.array([1.0, 2.0]), "a") and not record != record
    for other in (Deferred(np.array([1.0, 2.5]), "a"), Deferred(np.array([1.0, 2.0, 3.0]), "a"),
                  Deferred(np.array([1.0, 2.0]), "b")):
        assert other != record and not record == other


class _Optional(Record):
    samples: np.ndarray | None
    label: str = ""


class _OptionalAlone(Record):
    samples: np.ndarray | None


@pytest.mark.parametrize("cls", [_Optional, _OptionalAlone])
def test_an_optional_array_field_is_compared_by_element(cls):
    array = cls(np.array([1.0, 2.0]))
    assert array == cls(np.array([1.0, 2.0])) and cls(None) == cls(None)
    for other in (cls(None), cls(np.array([1.0, 2.5])), cls(np.array([[1.0, 2.0]]))):
        assert other != array and array != other and not array == other
    assert hash(cls(None)) == hash(cls(None))


class _One(Record):
    samples: np.ndarray


def test_a_one_field_array_is_unequal_to_an_array_of_another_length():
    short, long = _One(np.array([1.0, 2.0])), _One(np.array([1.0, 2.0, 3.0]))
    assert short != long and long != short and not short == long
    assert short == _One(np.array([1.0, 2.0])) and short._values[0] is short.samples


def test_a_numpy_scalar_field_compares_as_in_a_tuple():
    # as fit_linear's intercept can be: a numpy float64 has a shape, (), but holds one number
    fit = wristkit.LinearFit(-1.5, np.float64(0.25), 0.875, 50)
    assert fit == wristkit.LinearFit(-1.5, 0.25, 0.875, 50) == fit
    assert _One(np.array(2.0)) == _One(2.0) and _One(np.array([2.0])) != _One(2.0)


class _Empty(Record):
    pass


def test_a_record_with_no_fields_equals_its_kind_and_hashes():
    assert _Empty() == _Empty() and not _Empty() != _Empty() and _Empty()._values == ()
    assert hash(_Empty()) == hash(()) and len({_Empty(), _Empty()}) == 1
    assert repr(_Empty()) == "_Empty()" and pickle.loads(pickle.dumps(_Empty())) == _Empty()
