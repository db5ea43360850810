"""Sectioned key-value configuration for the whole toolkit.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, blank lines, and full-line comments starting with ``#`` or ``;``.
Keys carry their units (``k_spring_n_per_mm``) because unit slips are the
dominant failure mode in a mixed mm/N/deg codebase.  Unknown sections or
keys are rejected with the offending line number and the list of valid
names; anything omitted falls back to the built-in defaults.

Angles are degrees in files (and everywhere else at the I/O boundary),
radians inside.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import replace
from typing import Callable, NamedTuple

from . import chain as chain_mod
from . import contact as contact_mod
from . import gait as gait_mod
from . import leg as leg_mod


class ConfigError(ValueError):
    """Configuration problem; carries the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


TARSOMERE_SECTIONS = tuple(f"tarsomere_{i}" for i in range(1, 6))
LEG_SECTIONS = tuple(f"leg_{name}" for name in leg_mod.JOINT_NAMES)

VALID_KEYS = {
    "chain": {"k_spring_n_per_mm", "k_flex_n_per_mm", "k_rigid_n_per_mm",
              "socket_slack"},
    "claw": {"length_mm"},
    "ik": {"tol_mm"},
    "solver": {"tol_mm", "max_iter"},
    "mesh": {"spacing_mm", "node_stiffness_n_per_mm", "rest_height_mm",
             "cells_x", "cells_y", "origin_x_mm", "origin_y_mm"},
    "limits": {"vertical_max_n", "hooking_max_n"},
    "analytics": {"rate_fps", "hysteresis_frac", "min_separation_ms",
                  "interpolate_gaps"},
    "retarget": {"scale"},
    "sim": {"dt_ms", "penetration_mm"},
}
for _s in TARSOMERE_SECTIONS:
    VALID_KEYS[_s] = {"radius_mm", "anchor_long_mm", "anchor_trans_mm",
                      "rest_span_mm", "max_bend_deg", "axial_cap_mm",
                      "slack_mm", "length_mm"}
for _s in LEG_SECTIONS:
    VALID_KEYS[_s] = {"a_mm", "theta_offset_deg", "min_deg", "max_deg"}

SCENARIO_PREFIX = "scenario:"
SCENARIO_KEYS = {"allow_flexible", "expect_failures", "home"}  # + phase_N
# a scenario name prefixes the names of the files sim writes
SCENARIO_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Kind(NamedTuple):
    """How a value is read: ``parse`` turns its text into the value, or
    raises ValueError saying what it expected; ``holds`` is the rule the
    value must keep, which ``rule`` states."""

    parse: Callable
    rule: str = ""
    holds: Callable = lambda value: True


def _parse_as(convert, what: str):
    """A parse by ``convert``, whose failure says the text is not
    ``what``."""
    def parse(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"not {what}: {raw!r}") from None
    return parse


_BOOLEAN_WORDS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
                  **dict.fromkeys(("false", "no", "off", "0"), False)}
_number = _parse_as(float, "a number")
_integer = _parse_as(int, "an integer")
_boolean = _parse_as(lambda raw: _BOOLEAN_WORDS[raw.lower()], "a boolean")


def _home(raw: str) -> tuple | None:
    """A scenario's home tip; None for ``auto``."""
    if raw == "auto":
        return None
    home = _finite_numbers(raw.split())
    if home is None or len(home) != 3:
        raise ValueError(f"expected 'auto' or three finite numbers, "
                         f"got {raw!r}")
    return home


def _phase(raw: str) -> contact_mod.Phase:
    parts = raw.split()
    if len(parts) != 6:
        raise ValueError("expected '<name> <mode> <duration_ms> <dx> <dy> "
                         "<dz>'")
    numbers = _finite_numbers(parts[2:])
    if numbers is None:
        raise ValueError(f"duration and offsets must be finite numbers, "
                         f"got {' '.join(parts[2:])!r}")
    return contact_mod.Phase(parts[0], numbers[0], parts[1], numbers[1:])


# comparisons with nan are false, so each bounded rule also asks finite
_FINITE = _Kind(_number, "finite", math.isfinite)
_POSITIVE = _Kind(_number, "finite and > 0", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = _Kind(_number, "finite and >= 0",
                     lambda v: 0.0 <= v < math.inf)
_FRACTION = _Kind(_number, "finite, >= 0 and < 1", lambda v: 0.0 <= v < 1.0)
_INTEGER = _Kind(_integer)
_COUNT = _Kind(_integer, ">= 1", lambda v: v >= 1)
_BOOLEAN = _Kind(_boolean)
_HOME = _Kind(_home)
_PHASE = _Kind(_phase)


class Config:
    """Parsed configuration: raw section/key table plus typed accessors."""

    def __init__(self, data: dict | None = None):
        self.data = data or {}

    @classmethod
    def default(cls) -> "Config":
        return cls({})

    def value(self, section: str, key: str, default, kind: _Kind = _FINITE):
        """``[section] key`` read as ``kind``; ``default`` when the key is
        absent.  A value that does not parse or keep the kind's rule is a
        ConfigError naming the key and its line."""
        raw, line = self.data.get(section, {}).get(key, (None, None))
        if raw is None:
            return default
        try:
            value = kind.parse(raw)
        except ValueError as err:
            raise ConfigError(f"{section}.{key}: {err}", line) from None
        if not kind.holds(value):
            raise ConfigError(f"{section}.{key} must be {kind.rule}, got "
                              f"{value}", line)
        return value

    def _full_set(self, sections: tuple, what: str) -> bool:
        """Whether ``sections`` are given: all of them, or none."""
        missing = [s for s in sections if s not in self.data]
        if 0 < len(missing) < len(sections):
            raise ConfigError(
                f"{what} sections must come as a full set of "
                f"{len(sections)}; missing {sorted(missing)}")
        return not missing

    # -- typed builders ---------------------------------------------------

    def build_chain(self) -> chain_mod.ChainGeometry:
        """Chain geometry: per-tarsomere sections if given, else calibrated."""
        if self._full_set(TARSOMERE_SECTIONS, "tarsomere"):
            segments, lengths, slack = [], [], []
            for s in TARSOMERE_SECTIONS:
                segments.append(_build(
                    s, chain_mod.SegmentGeometry,
                    radius=self.value(s, "radius_mm", 5.0),
                    anchor_long=self.value(s, "anchor_long_mm", 6.0),
                    anchor_trans=self.value(s, "anchor_trans_mm", 1.0),
                    max_bend=math.radians(self.value(s, "max_bend_deg", 10.0)),
                    rest_span=self.value(s, "rest_span_mm", None),
                    axial_cap=self.value(s, "axial_cap_mm", 0.0),
                ))
                lengths.append(self.value(s, "length_mm", 12.0))
                slack.append(self.value(s, "slack_mm", 0.0))
            base = _build(
                "tarsomere_1..5", chain_mod.ChainGeometry,
                segments=tuple(segments), segment_lengths=tuple(lengths),
                socket_slack=tuple(slack))
        else:
            base = chain_mod.default_chain_geometry(socket_slack=self.value(
                "chain", "socket_slack", False, _BOOLEAN))
        slopes = {name: self.value("chain", f"{name}_n_per_mm", None)
                  for name in ("k_spring", "k_flex", "k_rigid")}
        slopes = {name: v for name, v in slopes.items() if v is not None}
        # the chain is built a second time only for a slope the config sets
        return _build("chain", replace, base, **slopes) if slopes else base

    def build_leg(self) -> leg_mod.LegModel:
        if not self._full_set(LEG_SECTIONS, "leg joint"):
            return leg_mod.default_leg_model()
        rows, limits = [], []
        for s in LEG_SECTIONS:
            rows.append(_build(
                s, leg_mod.DHRow,
                a=self.value(s, "a_mm", 0.0),
                theta_offset=math.radians(
                    self.value(s, "theta_offset_deg", 0.0)),
            ))
            lo = self.value(s, "min_deg", -leg_mod.JOINT_LIMIT_DEG)
            hi = self.value(s, "max_deg", leg_mod.JOINT_LIMIT_DEG)
            if not lo < hi:
                raise ConfigError(f"[{s}] min_deg must be < max_deg, got "
                                  f"{lo} and {hi}")
            limits.append((math.radians(lo), math.radians(hi)))
        return _build("leg_coxa..tibia", leg_mod.LegModel, tuple(rows),
                      tuple(limits))

    def build_mesh(self) -> contact_mod.MeshGrid:
        base = contact_mod.MeshGrid()
        return _build(
            "mesh", contact_mod.MeshGrid,
            spacing=self.value("mesh", "spacing_mm", base.spacing),
            node_stiffness=self.value("mesh", "node_stiffness_n_per_mm",
                                      base.node_stiffness),
            rest_height=self.value("mesh", "rest_height_mm",
                                   base.rest_height),
            cells=(self.value("mesh", "cells_x", base.cells[0], _INTEGER),
                   self.value("mesh", "cells_y", base.cells[1], _INTEGER)),
            origin=(self.value("mesh", "origin_x_mm", base.origin[0]),
                    self.value("mesh", "origin_y_mm", base.origin[1])),
        )

    def build_limits(self) -> contact_mod.ForceLimits:
        """``[limits]``, the one source of the vertical force cap: each
        limit finite and > 0."""
        base = contact_mod.ForceLimits()
        return contact_mod.ForceLimits(
            vertical_max=self.value("limits", "vertical_max_n",
                                    base.vertical_max, _POSITIVE),
            hooking_max=self.value("limits", "hooking_max_n",
                                   base.hooking_max, _POSITIVE),
        )

    def claw_params(self) -> dict:
        """``[claw] length_mm``, finite and > 0."""
        return {"length_mm": self.value(
            "claw", "length_mm", contact_mod.DEFAULT_CLAW_LENGTH_MM,
            _POSITIVE)}

    def retarget_params(self) -> dict:
        """``[retarget] scale``, finite and > 0."""
        return {"scale": self.value("retarget", "scale",
                                    leg_mod.RETARGET_SCALE, _POSITIVE)}

    def analytics_params(self) -> dict:
        """``[analytics]``: rate_fps finite and > 0, hysteresis_frac
        finite, >= 0 and < 1, min_separation_ms finite and >= 0."""
        return {
            "rate_fps": self.value("analytics", "rate_fps",
                                   gait_mod.DEFAULT_RATE_FPS, _POSITIVE),
            "hysteresis_frac": self.value("analytics", "hysteresis_frac",
                                          gait_mod.HYSTERESIS_FRAC,
                                          _FRACTION),
            "min_separation_ms": self.value("analytics", "min_separation_ms",
                                            gait_mod.MIN_SEPARATION_MS,
                                            _NONNEGATIVE),
            "interpolate_gaps": self.value("analytics", "interpolate_gaps",
                                           False, _BOOLEAN),
        }

    def build_scenario(self, name: str, chain: chain_mod.ChainGeometry,
                       mesh: contact_mod.MeshGrid) -> contact_mod.Scenario:
        """A config-defined scenario, or the built-in one for known names.

        A config-defined scenario with ``home = auto`` starts where the
        built-in ``walk_cycle`` does.
        """
        section = SCENARIO_PREFIX + name
        custom = section in self.data
        home = self.value(section, "home", None, _HOME)
        if home is None:
            base = _build(
                section, contact_mod.builtin_scenario,
                "walk_cycle" if custom else name, chain, mesh,
                claw_length=self.claw_params()["length_mm"],
                penetration_mm=self.sim_params()["penetration_mm"])
            if not custom:
                return base
            home = base.home_tip
        keys = self.data[section]
        count = next(n for n in range(len(keys) + 1)
                     if f"phase_{n + 1}" not in keys)
        for key, (_, line) in keys.items():
            if key.startswith("phase_") \
                    and not 1 <= int(key[len("phase_"):]) <= count:
                raise ConfigError(
                    f"{section}.{key}: phases are numbered 1, 2, 3... "
                    f"with no gap", line)
        # zero phases is legal: the run emits a header-only series
        return contact_mod.Scenario(
            name=name, home_tip=home,
            phases=tuple(self.value(section, f"phase_{i}", None, _PHASE)
                         for i in range(1, count + 1)),
            allow_flexible=self.value(section, "allow_flexible", True,
                                      _BOOLEAN),
            expect_failures=self.value(section, "expect_failures", False,
                                       _BOOLEAN),
        )

    def ik_params(self) -> dict:
        """``[ik] tol_mm``, finite and > 0; keyword arguments of the IK."""
        return {"tol_mm": self.value("ik", "tol_mm", leg_mod.IK_TOL_MM,
                                     _POSITIVE)}

    def solver_params(self) -> dict:
        """``[solver]`` chain-solve settings: tol_mm finite and > 0,
        max_iter >= 1; keyword arguments of the chain's inverse pull map."""
        return {"tol": self.value("solver", "tol_mm", chain_mod.SOLVE_TOL_MM,
                                  _POSITIVE),
                "max_iter": self.value("solver", "max_iter",
                                       chain_mod.SOLVE_MAX_ITER, _COUNT)}

    def sim_params(self) -> dict:
        """``[sim]`` run settings: dt_ms and penetration_mm, each finite
        and > 0."""
        return {key: self.value("sim", key, default, _POSITIVE)
                for key, default in
                (("dt_ms", contact_mod.DEFAULT_DT_MS),
                 ("penetration_mm", contact_mod.DEFAULT_PENETRATION_MM))}

    def hash(self) -> str:
        """Stable digest of the effective configuration."""
        lines = []
        for section in sorted(self.data):
            for key in sorted(self.data[section]):
                lines.append(f"{section}.{key}={self.data[section][key][0]}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError becomes a ConfigError
    naming ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def _finite_numbers(words) -> tuple | None:
    """The words as floats, or None unless each is a finite number."""
    try:
        numbers = tuple(float(w) for w in words)
    except ValueError:
        return None
    return numbers if all(map(math.isfinite, numbers)) else None


def _valid_section(section: str) -> bool:
    return section in VALID_KEYS or section.startswith(SCENARIO_PREFIX)


def _valid_key(section: str, key: str) -> bool:
    if section.startswith(SCENARIO_PREFIX):
        if key in SCENARIO_KEYS:
            return True
        if key.startswith("phase_"):
            tail = key[len("phase_"):]
            return tail.isdigit() and tail == str(int(tail))
        return False
    return key in VALID_KEYS[section]


def parse_config(text: str) -> Config:
    """Parse configuration text; raise ConfigError with line numbers."""
    data: dict = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not _valid_section(section):
                raise ConfigError(
                    f"unknown section [{section}]; valid sections: "
                    f"{', '.join(sorted(VALID_KEYS))}, scenario:<name>",
                    line_no)
            name = section[len(SCENARIO_PREFIX):]
            if section.startswith(SCENARIO_PREFIX) and (
                    name == ".." or not SCENARIO_NAME.fullmatch(name)):
                raise ConfigError(
                    f"scenario name {name!r} is not a file-name stem of "
                    f"letters, digits, '_', '-' and '.'", line_no)
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        if section is None:
            raise ConfigError("key outside any [section]", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if (section, key) == ("chain", "vertical_cap_n"):
            raise ConfigError("[chain] vertical_cap_n was removed; the "
                              "vertical force cap is set by [limits] "
                              "vertical_max_n", line_no)
        if not _valid_key(section, key):
            if section.startswith(SCENARIO_PREFIX):
                valid = ", ".join(sorted(SCENARIO_KEYS) + ["phase_<n>"])
            else:
                valid = ", ".join(sorted(VALID_KEYS[section]))
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; valid keys: {valid}",
                line_no)
        if key in data[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line_no)
        data[section][key] = (value, line_no)
    return Config(data)


def load_config(path) -> Config:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the line of the first bad byte, numbered as parse_config numbers
        line = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"config file {path} is not UTF-8 text "
                          f"(byte 0x{data[err.start]:02x})", line) from None
    return parse_config(text)
