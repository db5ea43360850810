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


class Config:
    """Parsed configuration: raw section/key table plus typed accessors."""

    def __init__(self, data: dict | None = None, source_text: str = ""):
        self.data = data or {}
        self.source_text = source_text

    @classmethod
    def default(cls) -> "Config":
        return cls({}, "")

    # -- raw access -------------------------------------------------------

    def get(self, section: str, key: str, default=None):
        return self.data.get(section, {}).get(key, (default, None))[0]

    def getfloat(self, section: str, key: str, default: float) -> float:
        """The value as a finite float; ``default`` when the key is absent."""
        return self._number(section, key, default, "finite", math.isfinite)

    def getint(self, section: str, key: str, default: int) -> int:
        raw, line = self.data.get(section, {}).get(key, (None, None))
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not an integer: {raw!r}", line)

    def getbool(self, section: str, key: str, default: bool) -> bool:
        raw, line = self.data.get(section, {}).get(key, (None, None))
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{section}.{key}: not a boolean: {raw!r}", line)

    def getstr(self, section: str, key: str, default: str) -> str:
        raw = self.get(section, key)
        return default if raw is None else raw

    def has_section(self, section: str) -> bool:
        return section in self.data

    # -- typed builders ---------------------------------------------------

    def build_chain(self) -> chain_mod.ChainGeometry:
        """Chain geometry: per-tarsomere sections if given, else calibrated."""
        present = [s for s in TARSOMERE_SECTIONS if self.has_section(s)]
        if present and len(present) != len(TARSOMERE_SECTIONS):
            missing = sorted(set(TARSOMERE_SECTIONS) - set(present))
            raise ConfigError(
                f"tarsomere sections must come as a full set of 5; "
                f"missing {missing}")
        if present:
            segments, lengths, slack = [], [], []
            for s in TARSOMERE_SECTIONS:
                segments.append(_build(
                    s, chain_mod.SegmentGeometry,
                    radius=self.getfloat(s, "radius_mm", 5.0),
                    anchor_long=self.getfloat(s, "anchor_long_mm", 6.0),
                    anchor_trans=self.getfloat(s, "anchor_trans_mm", 1.0),
                    max_bend=math.radians(self.getfloat(s, "max_bend_deg", 10.0)),
                    rest_span=self.getfloat(s, "rest_span_mm", None),
                    axial_cap=self.getfloat(s, "axial_cap_mm", 0.0),
                ))
                lengths.append(self.getfloat(s, "length_mm", 12.0))
                slack.append(self.getfloat(s, "slack_mm", 0.0))
            base = _build(
                "tarsomere_1..5", chain_mod.ChainGeometry,
                segments=tuple(segments), segment_lengths=tuple(lengths),
                socket_slack=tuple(slack))
        else:
            base = chain_mod.default_chain_geometry(
                socket_slack=self.getbool("chain", "socket_slack", False))
        slopes = {name: self.getfloat("chain", f"{name}_n_per_mm", None)
                  for name in ("k_spring", "k_flex", "k_rigid")}
        slopes = {name: v for name, v in slopes.items() if v is not None}
        # the chain is built a second time only for a slope the config sets
        return _build("chain", replace, base, **slopes) if slopes else base

    def build_leg(self) -> leg_mod.LegModel:
        present = [s for s in LEG_SECTIONS if self.has_section(s)]
        if not present:
            return leg_mod.default_leg_model()
        if len(present) != len(LEG_SECTIONS):
            missing = sorted(set(LEG_SECTIONS) - set(present))
            raise ConfigError(
                f"leg joint sections must come as a full set of 4; "
                f"missing {missing}")
        rows, limits = [], []
        lim = leg_mod.JOINT_LIMIT_DEG
        for s in LEG_SECTIONS:
            rows.append(_build(
                s, leg_mod.DHRow,
                a=self.getfloat(s, "a_mm", 0.0),
                theta_offset=math.radians(
                    self.getfloat(s, "theta_offset_deg", 0.0)),
            ))
            lo = self.getfloat(s, "min_deg", -lim)
            hi = self.getfloat(s, "max_deg", lim)
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
            spacing=self.getfloat("mesh", "spacing_mm", base.spacing),
            node_stiffness=self.getfloat("mesh", "node_stiffness_n_per_mm",
                                         base.node_stiffness),
            rest_height=self.getfloat("mesh", "rest_height_mm",
                                      base.rest_height),
            cells=(self.getint("mesh", "cells_x", base.cells[0]),
                   self.getint("mesh", "cells_y", base.cells[1])),
            origin=(self.getfloat("mesh", "origin_x_mm", base.origin[0]),
                    self.getfloat("mesh", "origin_y_mm", base.origin[1])),
        )

    def build_limits(self) -> contact_mod.ForceLimits:
        """``[limits]``, the one source of the vertical force cap: each
        limit finite and > 0."""
        base = contact_mod.ForceLimits()
        return contact_mod.ForceLimits(
            vertical_max=self._positive("limits", "vertical_max_n",
                                        base.vertical_max),
            hooking_max=self._positive("limits", "hooking_max_n",
                                       base.hooking_max),
        )

    def claw_params(self) -> dict:
        """``[claw] length_mm``, finite and > 0."""
        return {
            "length_mm": self._positive("claw", "length_mm",
                                        contact_mod.DEFAULT_CLAW_LENGTH_MM),
        }

    def retarget_params(self) -> dict:
        """``[retarget] scale``, finite and > 0."""
        return {"scale": self._positive("retarget", "scale",
                                        leg_mod.RETARGET_SCALE)}

    def analytics_params(self) -> dict:
        """``[analytics]``: rate_fps finite and > 0, hysteresis_frac
        finite, >= 0 and < 1, min_separation_ms finite and >= 0."""
        return {
            "rate_fps": self._positive("analytics", "rate_fps",
                                       gait_mod.DEFAULT_RATE_FPS),
            "hysteresis_frac": self._number(
                "analytics", "hysteresis_frac", gait_mod.HYSTERESIS_FRAC,
                "finite, >= 0 and < 1",
                lambda v: math.isfinite(v) and 0.0 <= v < 1.0),
            "min_separation_ms": self._number(
                "analytics", "min_separation_ms", gait_mod.MIN_SEPARATION_MS,
                "finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0),
            "interpolate_gaps": self.getbool("analytics",
                                             "interpolate_gaps", False),
        }

    def build_scenario(self, name: str, chain: chain_mod.ChainGeometry,
                       mesh: contact_mod.MeshGrid) -> contact_mod.Scenario:
        """A config-defined scenario, or the built-in one for known names.

        A config-defined scenario with ``home = auto`` starts where the
        built-in ``walk_cycle`` does.
        """
        section = SCENARIO_PREFIX + name
        custom = self.has_section(section)
        home_raw = self.getstr(section, "home", "auto")
        if home_raw == "auto":
            base = _build(
                section, contact_mod.builtin_scenario,
                "walk_cycle" if custom else name, chain, mesh,
                claw_length=self.claw_params()["length_mm"],
                penetration_mm=self.sim_params()["penetration_mm"])
            if not custom:
                return base
            home = base.home_tip
        else:
            home = _finite_numbers(home_raw.split())
            if home is None or len(home) != 3:
                raise ConfigError(
                    f"{section}.home: expected 'auto' or three finite "
                    f"numbers, got {home_raw!r}", self._line(section, "home"))
        phases = []
        idx = 1
        while True:
            raw, line = self.data[section].get(f"phase_{idx}", (None, None))
            if raw is None:
                break
            parts = raw.split()
            if len(parts) != 6:
                raise ConfigError(
                    f"{section}.phase_{idx}: expected "
                    f"'<name> <mode> <duration_ms> <dx> <dy> <dz>'", line)
            numbers = _finite_numbers(parts[2:])
            if numbers is None:
                raise ConfigError(
                    f"{section}.phase_{idx}: duration and offsets must be "
                    f"finite numbers, got {' '.join(parts[2:])!r}", line)
            try:
                phases.append(contact_mod.Phase(parts[0], numbers[0],
                                                parts[1], numbers[1:]))
            except ValueError as err:
                raise ConfigError(f"{section}.phase_{idx}: {err}",
                                  line) from None
            idx += 1
        for key, (_, line) in self.data[section].items():
            if key.startswith("phase_") \
                    and not 1 <= int(key[len("phase_"):]) < idx:
                raise ConfigError(
                    f"{section}.{key}: phases are numbered 1, 2, 3... "
                    f"with no gap", line)
        # zero phases is legal: the run emits a header-only series
        return contact_mod.Scenario(
            name=name, home_tip=home, phases=tuple(phases),
            allow_flexible=self.getbool(section, "allow_flexible", True),
            expect_failures=self.getbool(section, "expect_failures", False),
        )

    def ik_params(self) -> dict:
        """``[ik] tol_mm``, finite and > 0; keyword arguments of the IK."""
        return {"tol_mm": self._positive("ik", "tol_mm", leg_mod.IK_TOL_MM)}

    def solver_params(self) -> dict:
        """``[solver]`` chain-solve settings: tol_mm finite and > 0,
        max_iter >= 1; keyword arguments of the chain's inverse pull map."""
        tol = self._positive("solver", "tol_mm", chain_mod.SOLVE_TOL_MM)
        max_iter = self.getint("solver", "max_iter", chain_mod.SOLVE_MAX_ITER)
        if max_iter < 1:
            raise ConfigError(f"solver.max_iter must be >= 1, got {max_iter}",
                              self._line("solver", "max_iter"))
        return {"tol": tol, "max_iter": max_iter}

    def sim_params(self) -> dict:
        """``[sim]`` run settings: dt_ms and penetration_mm, each finite
        and > 0."""
        return {key: self._positive("sim", key, default) for key, default in
                (("dt_ms", contact_mod.DEFAULT_DT_MS),
                 ("penetration_mm", contact_mod.DEFAULT_PENETRATION_MM))}

    def _positive(self, section: str, key: str, default: float) -> float:
        return self._number(section, key, default, "finite and > 0",
                            lambda v: math.isfinite(v) and v > 0)

    def _number(self, section: str, key: str, default: float, rule: str,
                holds) -> float:
        """The value as a float for which ``holds`` is true (``rule`` says
        what it asks in the error); ``default`` when the key is absent."""
        raw, line = self.data.get(section, {}).get(key, (None, None))
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not a number: {raw!r}", line)
        if not holds(value):
            raise ConfigError(f"{section}.{key} must be {rule}, got {value}",
                              line)
        return value

    def _line(self, section: str, key: str) -> int | None:
        return self.data.get(section, {}).get(key, (None, None))[1]

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
    return Config(data, text)


def load_config(path) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text: "
                          f"{err}") from None
    return parse_config(text)
