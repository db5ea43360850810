"""Sectioned key-value configuration for the whole toolkit.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, blank lines, and full-line comments starting with ``#`` or ``;``.
Keys carry their units (``k_spring_n_per_mm``) because unit slips are the
dominant failure mode in a mixed mm/N/deg codebase.  ``KEYS`` is the one
table of the keys each section takes, with each key's default and rule.
Unknown sections or keys are rejected with the offending line number and
the list of valid names; anything omitted falls back to its default.

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

TARSOMERE_SECTIONS = tuple(f"tarsomere_{i}" for i in range(1, 6))
LEG_SECTIONS = tuple(f"leg_{name}" for name in leg_mod.JOINT_NAMES)
SCENARIO_PREFIX = "scenario:"
# a scenario name prefixes the names of the files sim writes
SCENARIO_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_PHASE_KEY = re.compile(r"phase_(?:0|[1-9][0-9]*)")

_MESH, _LIMITS = contact_mod.MeshGrid(), contact_mod.ForceLimits()
_TARSOMERE = {
    "radius_mm": (5.0, _FINITE), "anchor_long_mm": (6.0, _FINITE),
    "anchor_trans_mm": (1.0, _FINITE), "max_bend_deg": (10.0, _FINITE),
    "rest_span_mm": (None, _FINITE),  # None: derived from the anchors
    "axial_cap_mm": (0.0, _FINITE), "length_mm": (12.0, _FINITE),
    "slack_mm": (0.0, _FINITE)}
_LEG = {"a_mm": (0.0, _FINITE), "theta_offset_deg": (0.0, _FINITE),
        "min_deg": (-leg_mod.JOINT_LIMIT_DEG, _FINITE),
        "max_deg": (leg_mod.JOINT_LIMIT_DEG, _FINITE)}
# Every key a file may set, by section: (default when omitted, kind), in
# the order the builders read them.  Numeric defaults come from the layer
# modules that own them; the tarsomere and leg fallbacks above are config's.
KEYS = {
    "chain": {"socket_slack": (False, _BOOLEAN),
              # None: the calibrated slope
              **dict.fromkeys(("k_spring_n_per_mm", "k_flex_n_per_mm",
                               "k_rigid_n_per_mm"), (None, _FINITE))},
    "claw": {"length_mm": (contact_mod.DEFAULT_CLAW_LENGTH_MM, _POSITIVE)},
    "ik": {"tol_mm": (leg_mod.IK_TOL_MM, _POSITIVE)},
    "solver": {"tol_mm": (chain_mod.SOLVE_TOL_MM, _POSITIVE),
               "max_iter": (chain_mod.SOLVE_MAX_ITER, _COUNT)},
    "mesh": {"spacing_mm": (_MESH.spacing, _FINITE),
             "node_stiffness_n_per_mm": (_MESH.node_stiffness, _FINITE),
             "rest_height_mm": (_MESH.rest_height, _FINITE),
             "cells_x": (_MESH.cells[0], _INTEGER),
             "cells_y": (_MESH.cells[1], _INTEGER),
             "origin_x_mm": (_MESH.origin[0], _FINITE),
             "origin_y_mm": (_MESH.origin[1], _FINITE)},
    "limits": {"vertical_max_n": (_LIMITS.vertical_max, _POSITIVE),
               "hooking_max_n": (_LIMITS.hooking_max, _POSITIVE)},
    "analytics": {"rate_fps": (gait_mod.DEFAULT_RATE_FPS, _POSITIVE),
                  "hysteresis_frac": (gait_mod.HYSTERESIS_FRAC, _FRACTION),
                  "min_separation_ms": (gait_mod.MIN_SEPARATION_MS,
                                        _NONNEGATIVE),
                  "interpolate_gaps": (False, _BOOLEAN)},
    "retarget": {"scale": (leg_mod.RETARGET_SCALE, _POSITIVE)},
    "sim": {"dt_ms": (contact_mod.DEFAULT_DT_MS, _POSITIVE),
            "penetration_mm": (contact_mod.DEFAULT_PENETRATION_MM,
                               _POSITIVE)},
    **dict.fromkeys(TARSOMERE_SECTIONS, _TARSOMERE),
    **dict.fromkeys(LEG_SECTIONS, _LEG),
}
# a [scenario:<name>] section's keys; phase_<n> (n written without leading
# zeros) is a phase, with no default
SCENARIO_KEYS = {"home": (None, _HOME), "allow_flexible": (True, _BOOLEAN),
                 "expect_failures": (False, _BOOLEAN)}


def _key(section: str, key: str) -> tuple | None:
    """``(default, kind)`` of ``[section] key``; None for a key the section
    does not take."""
    if section.startswith(SCENARIO_PREFIX):
        return (None, _PHASE) if _PHASE_KEY.fullmatch(key) \
            else SCENARIO_KEYS.get(key)
    return KEYS[section].get(key)


class Config:
    """Parsed configuration: the raw section/key table, read by ``value``
    and the ``build_*`` methods."""

    def __init__(self, data: dict | None = None):
        self.data = data or {}

    @classmethod
    def default(cls) -> "Config":
        return cls({})

    def value(self, section: str, key: str):
        """``[section] key`` read as its kind in ``KEYS``; its default there
        when the key is absent.  A value that does not parse or keep the
        kind's rule is a ConfigError naming the key and its line."""
        default, kind = _key(section, key)
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

    def _params(self, section: str) -> dict:
        """Every key of ``section`` by name, read as ``value`` reads it."""
        return {key: self.value(section, key) for key in KEYS[section]}

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
            raw, line = self.data.get("chain", {}).get("socket_slack",
                                                       (None, None))
            if raw is not None:
                raise ConfigError(
                    "chain.socket_slack is not read beside [tarsomere_1].."
                    "[tarsomere_5]; set each one's slack_mm instead", line)
            segments, lengths, slack = [], [], []
            for s in TARSOMERE_SECTIONS:
                p = self._params(s)
                segments.append(_build(
                    s, chain_mod.SegmentGeometry, radius=p["radius_mm"],
                    anchor_long=p["anchor_long_mm"],
                    anchor_trans=p["anchor_trans_mm"],
                    max_bend=math.radians(p["max_bend_deg"]),
                    rest_span=p["rest_span_mm"], axial_cap=p["axial_cap_mm"]))
                lengths.append(p["length_mm"])
                slack.append(p["slack_mm"])
            base = _build(
                "tarsomere_1..5", chain_mod.ChainGeometry,
                segments=tuple(segments), segment_lengths=tuple(lengths),
                socket_slack=tuple(slack))
        else:
            base = chain_mod.default_chain_geometry(
                socket_slack=self.value("chain", "socket_slack"))
        slopes = {name: self.value("chain", f"{name}_n_per_mm")
                  for name in ("k_spring", "k_flex", "k_rigid")}
        slopes = {name: v for name, v in slopes.items() if v is not None}
        # the chain is built a second time only for a slope the config sets
        return _build("chain", replace, base, **slopes) if slopes else base

    def build_leg(self) -> leg_mod.LegModel:
        if not self._full_set(LEG_SECTIONS, "leg joint"):
            return leg_mod.default_leg_model()
        rows, limits = [], []
        for s in LEG_SECTIONS:
            p = self._params(s)
            rows.append(_build(
                s, leg_mod.DHRow, a=p["a_mm"],
                theta_offset=math.radians(p["theta_offset_deg"])))
            lo, hi = p["min_deg"], p["max_deg"]
            if not lo < hi:
                raise ConfigError(f"[{s}] min_deg must be < max_deg, got "
                                  f"{lo} and {hi}")
            limits.append((math.radians(lo), math.radians(hi)))
        return _build("leg_coxa..tibia", leg_mod.LegModel, tuple(rows),
                      tuple(limits))

    def build_mesh(self) -> contact_mod.MeshGrid:
        p = self._params("mesh")
        return _build(
            "mesh", contact_mod.MeshGrid, spacing=p["spacing_mm"],
            node_stiffness=p["node_stiffness_n_per_mm"],
            rest_height=p["rest_height_mm"],
            cells=(p["cells_x"], p["cells_y"]),
            origin=(p["origin_x_mm"], p["origin_y_mm"]))

    def build_limits(self) -> contact_mod.ForceLimits:
        """``[limits]``, the one source of the vertical force cap."""
        p = self._params("limits")
        return contact_mod.ForceLimits(vertical_max=p["vertical_max_n"],
                                       hooking_max=p["hooking_max_n"])

    def build_scenario(self, name: str, chain: chain_mod.ChainGeometry,
                       mesh: contact_mod.MeshGrid) -> contact_mod.Scenario:
        """A config-defined scenario, or the built-in one for known names.

        A config-defined scenario with ``home = auto`` starts where the
        built-in ``walk_cycle`` does.
        """
        section = SCENARIO_PREFIX + name
        custom = section in self.data
        home = self.value(section, "home")
        if home is None:
            base = _build(
                section, contact_mod.builtin_scenario,
                "walk_cycle" if custom else name, chain, mesh,
                claw_length=self.value("claw", "length_mm"),
                penetration_mm=self.value("sim", "penetration_mm"))
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
            phases=tuple(self.value(section, f"phase_{i}")
                         for i in range(1, count + 1)),
            allow_flexible=self.value(section, "allow_flexible"),
            expect_failures=self.value(section, "expect_failures"))

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
            if section not in KEYS \
                    and not section.startswith(SCENARIO_PREFIX):
                raise ConfigError(
                    f"unknown section [{section}]; valid sections: "
                    f"{', '.join(sorted(KEYS))}, scenario:<name>",
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
        if _key(section, key) is None:
            valid = ", ".join(sorted(SCENARIO_KEYS) + ["phase_<n>"]
                              if section.startswith(SCENARIO_PREFIX)
                              else sorted(KEYS[section]))
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
