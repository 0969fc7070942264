"""YAML scenario configs: operator, workcell rigs, task, noise, adaptation.

A scenario file is a nested key/value document, e.g.::

    name: desk_handover
    stature: 1.75            # float, list, or {start, stop, step} grid
    seed: 0
    frame_rate: 10.0
    warmup: 2.0              # upright seconds used for height estimation
    adapt: true
    delivery: [0.90, 0.0, 1.4315]
    stance: auto
    adjustments: {muscle_use_b: 1, force_b: 1}
    motion:
      - {name: rest,   duration: 2.0, target: rest}
      - {name: reach,  duration: 2.0, target: delivery}
      - {name: hold,   duration: 4.0, target: delivery}
      - {name: return, duration: 2.0, target: rest}
    rigs:
      - {id: S1, position: [1.9, -1.1, 1.6], look_at: [0.45, 0.0, 1.0],
         baseline: 0.5, noise_sigma: 0.001}

Every number is a YAML number (a quoted number or a bool is an error);
the file is read as YAML 1.1 except that ``1e-05`` is a float, as
``json.dumps`` writes it.

Rig orientation is an axis-angle ``rotation`` triple (radians) or the
``look_at`` convenience. Each rig is built once, at validation, and its
pose fields are kept as written, so ``to_dict`` (and every recording
manifest) rebuilds the identical rig. The relative pose to
the right camera defaults to a pure ``baseline`` offset along the left
camera's x axis; ``relative_rotation`` / ``relative_translation``
override it. ``stance: auto`` places the operator a fixed fraction of
their stature behind the delivery point with the working shoulder
aligned to it, so differently sized operators keep a proportionate
working distance.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .adaptation import MIN_UPRIGHT_FRAMES
from .cameras import (GeometryError, StereoRig, look_at_rotation,
                      rotation_from_axis_angle)
from .rula import RulaAdjustments
from .skeleton import (FRAME_RATE_HZ, MotionPhase, MotionScript, SEGMENT_RATIOS,
                       STATURE_RANGE)

# Operators stand this fraction of their stature behind the handover
# point (a proportionate working distance), right shoulder aligned to it.
STANCE_BACK_FRACTION = 0.275

MAX_RIGS = 8

# A stature grid holds at most one value per millimetre of the range.
MAX_STATURES = round(1000 * (STATURE_RANGE[1] - STATURE_RANGE[0])) + 1


class ScenarioError(ValueError):
    """Invalid or incomplete scenario configuration."""


class _Loader(yaml.SafeLoader):
    """``yaml.safe_load``'s YAML 1.1, except that every float written with
    an exponent is a float, not a str: YAML 1.1 wants a dot and a signed
    exponent, but ``json.dumps`` writes ``1e-05`` and ``1e+20``."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                              re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$"),
                              list("-+0123456789"))


def _number(value, field: str, conv: type = float):
    """``value`` as a finite float or a whole int, or an error naming ``field``.

    Only numbers count: Python would also convert a bool (to 0 or 1) and
    a quoted number (a str), but a scenario field given as either is an
    error.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{field}: expected a number, got {value!r}")
    try:
        number = conv(value)
    except (ValueError, OverflowError) as exc:      # int(nan), int(inf), float(10**400)
        raise ScenarioError(f"{field}: expected a number, got {value!r}") from exc
    if conv is float and not math.isfinite(number):
        raise ScenarioError(f"{field}: must be finite, got {value!r}")
    if conv is int and number != value:
        raise ScenarioError(f"{field}: expected an integer, got {value!r}")
    return number


def _vec3(value, field: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{field}: expected a 3-vector, got {value!r}")
    return np.array([_number(v, field) for v in value])


@dataclass(frozen=True)
class RigSpec:
    """One stereo rig: the rig built from its pose, its noise level, and
    the pose fields as the scenario gave them (validated floats), which
    rebuild the identical rig."""

    rig: StereoRig
    noise_sigma: float
    pose: dict

    @property
    def id(self) -> str:
        return self.rig.id


def _parse_rig(entry: dict, index: int) -> RigSpec:
    if not isinstance(entry, dict):
        raise ScenarioError(f"rigs[{index}]: expected a mapping")
    rig_id = entry.get("id")
    if not rig_id:
        raise ScenarioError(f"rigs[{index}]: missing required field 'id'")
    # A rig id is a field of the recording streams: a ',' would split its
    # rows, and a non-printable character (a newline, or another separator
    # str.splitlines splits on) would split its lines.
    if not isinstance(rig_id, str) or "," in rig_id or not rig_id.isprintable():
        raise ScenarioError(f"rigs[{index}]: id must be a string of printable "
                            f"characters other than ',', got {rig_id!r}")

    pose = {}               # the pose fields as given, for to_dict

    def vec3(field: str, default=None) -> np.ndarray:
        v = _vec3(entry.get(field, default), f"rig {rig_id} {field}")
        pose[field] = [float(x) for x in v]
        return v

    if "position" not in entry:
        raise ScenarioError(f"rig {rig_id}: missing required field 'position'")
    position = vec3("position")

    if "rotation" in entry and "look_at" in entry:
        raise ScenarioError(f"rig {rig_id}: give either 'rotation' or 'look_at', not both")
    if "rotation" in entry:
        rotation = rotation_from_axis_angle(vec3("rotation"))
    elif "look_at" in entry:
        try:
            rotation = look_at_rotation(position, vec3("look_at"))
        except GeometryError as exc:
            raise ScenarioError(f"rig {rig_id} look_at: {exc}") from exc
    else:
        raise ScenarioError(f"rig {rig_id}: missing 'rotation' (or 'look_at')")

    rel_rot = rotation_from_axis_angle(vec3("relative_rotation", (0.0, 0.0, 0.0)))
    if "relative_translation" in entry:
        rel_t = vec3("relative_translation")
    elif "baseline" in entry:
        baseline = _number(entry["baseline"], f"rig {rig_id} baseline")
        if baseline <= 0:
            raise ScenarioError(f"rig {rig_id}: baseline must be a positive number")
        pose["baseline"] = baseline
        rel_t = np.array([-baseline, 0.0, 0.0])
    else:
        raise ScenarioError(f"rig {rig_id}: missing 'baseline' (or 'relative_translation')")

    sigma = _number(entry.get("noise_sigma", 0.0), f"rig {rig_id} noise_sigma")
    if sigma < 0:
        raise ScenarioError(f"rig {rig_id}: noise_sigma must be >= 0")
    try:
        rig = StereoRig.from_left_pose(rig_id, rotation, position, rel_rot, rel_t)
    except GeometryError as exc:
        raise ScenarioError(f"rig {rig_id}: {exc}") from exc
    return RigSpec(rig=rig, noise_sigma=sigma, pose=pose)


def _parse_phase(entry: dict, index: int) -> MotionPhase:
    if not isinstance(entry, dict):
        raise ScenarioError(f"motion[{index}]: expected a mapping")
    name = str(entry.get("name", f"phase{index}"))
    if "duration" not in entry:
        raise ScenarioError(f"phase {name}: missing required field 'duration'")
    duration = _number(entry["duration"], f"phase {name} duration")
    target = entry.get("target", "rest")
    if isinstance(target, str):
        if target == "rest":
            resolved = None
        elif target == "delivery":
            resolved = "delivery"
        else:
            raise ScenarioError(
                f"phase {name}: target must be 'rest', 'delivery', or a 3-vector")
    else:
        resolved = tuple(_vec3(target, f"phase {name} target"))
    try:
        return MotionPhase(name=name, duration=duration, target=resolved)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario; one recording run uses one stature."""

    name: str
    statures: tuple[float, ...]
    seed: int
    frame_rate: float
    warmup: float
    adapt: bool
    delivery: np.ndarray
    stance: object                       # "auto" or a 3-vector
    adjustments: RulaAdjustments
    phases: tuple[MotionPhase, ...]
    rigs: tuple[RigSpec, ...]

    @property
    def stature(self) -> float:
        if len(self.statures) != 1:
            raise ScenarioError(
                "scenario defines a stature grid; expand it first "
                "(use expand_statures())")
        return self.statures[0]

    def expand_statures(self) -> list["ScenarioConfig"]:
        return [replace(self, statures=(s,)) for s in self.statures]

    def script(self) -> MotionScript:
        return MotionScript(phases=self.phases, frame_rate=self.frame_rate)

    def build_rigs(self) -> list[StereoRig]:
        """The rigs built at validation, in scenario order."""
        return [spec.rig for spec in self.rigs]

    def resolve_stance(self, stature: float) -> np.ndarray:
        if isinstance(self.stance, str):
            return np.array([
                self.delivery[0] - STANCE_BACK_FRACTION * stature,
                self.delivery[1] + SEGMENT_RATIOS["shoulder_width"] / 2.0 * stature,
                0.0])
        return np.asarray(self.stance, dtype=float)

    def to_dict(self) -> dict:
        """Plain-data form for manifests and re-serialization."""
        return {
            "name": self.name,
            "stature": list(self.statures) if len(self.statures) > 1 else self.statures[0],
            "seed": self.seed,
            "frame_rate": self.frame_rate,
            "warmup": self.warmup,
            "adapt": self.adapt,
            "delivery": [float(v) for v in self.delivery],
            "stance": self.stance if isinstance(self.stance, str)
                      else [float(v) for v in np.asarray(self.stance, dtype=float)],
            "adjustments": asdict(self.adjustments),
            "motion": [{"name": p.name, "duration": p.duration,
                        "target": ("rest" if p.target is None
                                   else p.target if isinstance(p.target, str)
                                   else [float(v) for v in p.target])}
                       for p in self.phases],
            "rigs": [{"id": r.id, **r.pose, "noise_sigma": r.noise_sigma}
                     for r in self.rigs],
        }


def _parse_statures(value) -> tuple[float, ...]:
    if isinstance(value, dict):
        missing = {"start", "stop", "step"} - set(value)
        if missing:
            raise ScenarioError(f"stature grid: missing {sorted(missing)}")
        start, stop, step = (_number(value[k], f"stature {k}")
                             for k in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ScenarioError("stature grid: need step > 0 and stop >= start")
        # The grid ends at the last value not above stop. The slack only
        # absorbs rounding: (1.9 - 1.5) / 0.1 is 3.999999999999999.
        steps = (stop - start) / step + 1e-9            # inf for a tiny step
        if not steps < MAX_STATURES:
            raise ScenarioError(f"stature grid: {start} to {stop} in steps of {step} "
                                f"has more than {MAX_STATURES} values")
        statures = tuple(round(start + i * step, 9) for i in range(int(steps) + 1))
    elif isinstance(value, (list, tuple)):
        statures = tuple(_number(v, "stature") for v in value)
    else:
        statures = (_number(value, "stature"),)
    if not statures:
        raise ScenarioError("stature: empty grid")
    lo, hi = STATURE_RANGE
    bad = [s for s in statures if not (lo <= s <= hi)]
    if bad:
        raise ScenarioError(f"stature values {bad} outside supported range [{lo}, {hi}]")
    return statures


def parse_scenario(data: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a plain mapping into a :class:`ScenarioConfig`."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    if "stature" not in data:
        raise ScenarioError("missing required field 'stature'")
    if "delivery" not in data:
        raise ScenarioError("missing required field 'delivery'")
    if "rigs" not in data or not data["rigs"]:
        raise ScenarioError("missing required field 'rigs' (need 1 to 8 rigs)")
    if "motion" not in data or not data["motion"]:
        raise ScenarioError("missing required field 'motion'")
    for field in ("rigs", "motion"):
        if not isinstance(data[field], (list, tuple)):
            raise ScenarioError(f"{field}: expected a list of mappings, got {data[field]!r}")

    statures = _parse_statures(data["stature"])
    delivery = _vec3(data["delivery"], "delivery")
    rigs = tuple(_parse_rig(entry, i) for i, entry in enumerate(data["rigs"]))
    if not (1 <= len(rigs) <= MAX_RIGS):
        raise ScenarioError(f"rigs: need between 1 and {MAX_RIGS}, got {len(rigs)}")
    ids = [r.id for r in rigs]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"rigs: duplicate rig ids in {ids}")

    phases = tuple(_parse_phase(entry, i) for i, entry in enumerate(data["motion"]))
    frame_rate = _number(data.get("frame_rate", FRAME_RATE_HZ), "frame_rate")
    if frame_rate <= 0:
        raise ScenarioError("frame_rate must be > 0")
    warmup = _number(data.get("warmup", 2.0), "warmup")
    adapt = data.get("adapt", True)
    if not isinstance(adapt, bool):
        raise ScenarioError(f"adapt: must be true or false, got {adapt!r}")
    total = sum(p.duration for p in phases)
    if adapt:
        need = MIN_UPRIGHT_FRAMES / frame_rate
        if warmup < need:
            raise ScenarioError(
                f"warmup: adaptation needs at least {need:.1f} s of warmup "
                f"at {frame_rate:g} Hz, got {warmup:g}")
        if warmup > total:
            raise ScenarioError("warmup exceeds the scripted motion duration")

    adj_data = data.get("adjustments", {}) or {}
    if not isinstance(adj_data, dict):
        raise ScenarioError(f"adjustments: expected a mapping, got {adj_data!r}")
    unknown = set(adj_data) - {field.name for field in fields(RulaAdjustments)}
    if unknown:
        raise ScenarioError(f"adjustments: unknown fields {sorted(unknown)}")
    try:
        adjustments = RulaAdjustments(**{k: _number(v, f"adjustments {k}", int)
                                         for k, v in adj_data.items()})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"adjustments: {exc}") from exc

    stance = data.get("stance", "auto")
    if isinstance(stance, str):
        if stance != "auto":
            raise ScenarioError("stance: must be 'auto' or a 3-vector")
    else:
        stance = _vec3(stance, "stance")

    return ScenarioConfig(
        name=str(data.get("name", name)),
        statures=statures,
        seed=_number(data.get("seed", 0), "seed", int),
        frame_rate=frame_rate,
        warmup=warmup,
        adapt=adapt,
        delivery=delivery,
        stance=stance,
        adjustments=adjustments,
        phases=phases,
        rigs=rigs)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    return parse_scenario(data, name=path.stem)
