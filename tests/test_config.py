"""Configuration parsing, validation and typed builders."""

import inspect
import math
import re
from pathlib import Path

import pytest

from tarsim import cli, config as config_mod
from tarsim.config import (KEYS, LEG_SECTIONS, SCENARIO_KEYS,
                           TARSOMERE_SECTIONS, Config, ConfigError,
                           load_config, parse_config)
from tarsim.contact import (ForceLimits, MeshGrid, builtin_scenario,
                            run_demo_cycle)
from tarsim.leg import default_leg_model

FULL_CHAIN = """
[chain]
k_spring_n_per_mm = 0.6
""" + "".join(
    f"""
[tarsomere_{i}]
radius_mm = {4.0 + i}
anchor_long_mm = 5.0
anchor_trans_mm = 0.5
max_bend_deg = 12.0
axial_cap_mm = 0.5
slack_mm = {0.4 if i == 2 else 0.0}
length_mm = 15.0
""" for i in range(1, 6))

LEG_KEYS = "a_mm, max_deg, min_deg, theta_offset_deg"
# removed keys: the claw ramp's, and the IK solver settings and DH
# geometry keys that only the closed form is left of
REMOVED_KEYS = [("claw", "threshold", "length_mm"),
                ("claw", "max_opening_deg", "length_mm"),
                ("ik", "damping", "tol_mm"),
                ("ik", "step_clamp_rad", "tol_mm"),
                ("ik", "max_iter", "tol_mm"),
                ("leg_coxa", "alpha_twist_deg", LEG_KEYS),
                ("leg_femur", "d_mm", LEG_KEYS)]


class TestParsing:
    def test_empty_is_default(self):
        cfg = parse_config("")
        assert cfg.data == {}

    def test_comments_and_blanks(self):
        cfg = parse_config("# hi\n\n; there\n[chain]\nk_spring_n_per_mm = 1\n")
        assert cfg.value("chain", "k_spring_n_per_mm") == 1.0

    def test_unknown_section_lists_valid(self):
        with pytest.raises(ConfigError, match="line 1") as err:
            parse_config("[nope]\n")
        assert "chain" in str(err.value)
        assert "scenario:<name>" in str(err.value)

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ConfigError, match="line 2") as err:
            parse_config("[chain]\nspring = 3\n")
        assert "k_spring_n_per_mm" in str(err.value)

    @pytest.mark.parametrize("section, key, valid", REMOVED_KEYS,
                             ids=[key for _, key, _ in REMOVED_KEYS])
    def test_removed_claw_keys_rejected(self, section, key, valid):
        with pytest.raises(ConfigError, match="line 2") as err:
            parse_config(f"[{section}]\n{key} = 0.5\n")
        assert f"unknown key {key!r} in [{section}]; valid keys: {valid}" \
            in str(err.value)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("a = b\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[chain]\nwhat is this\n")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x1c",
                                     "\x85", "\u2028"])
    def test_byte_not_utf8_names_its_line(self, tmp_path, end):
        # the line parse_config names for a bad line in the same place
        head = end.join(["# one", "", "[chain]", "what "]).encode("utf-8")
        path = tmp_path / "bad.conf"
        path.write_bytes(head + b"\xe9 is this\n")
        with pytest.raises(ConfigError) as parsed:
            parse_config((head + b"? is this\n").decode("utf-8"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert parsed.value.line == err.value.line == 4
        assert str(err.value) == \
            f"line 4: config file {path} is not UTF-8 text (byte 0xe9)"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[chain]\nk_spring_n_per_mm = 1\n"
                         "k_spring_n_per_mm = 2\n")

    def test_bad_number_reports_key(self):
        cfg = parse_config("[chain]\nk_spring_n_per_mm = soft\n")
        with pytest.raises(ConfigError, match="k_spring_n_per_mm"):
            cfg.value("chain", "k_spring_n_per_mm")

    def test_bad_bool(self):
        cfg = parse_config("[chain]\nsocket_slack = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            cfg.build_chain()


class TestBuilders:
    def test_default_chain(self):
        chain = Config.default().build_chain()
        assert len(chain.segments) == 5
        assert chain.k_spring == 0.54

    def test_chain_overrides(self):
        cfg = parse_config("[chain]\nk_spring_n_per_mm = 0.7\n"
                           "socket_slack = true\n")
        chain = cfg.build_chain()
        assert chain.k_spring == 0.7
        assert chain.socket_slack[1] == pytest.approx(2.9)

    def test_full_tarsomere_set(self):
        chain = parse_config(FULL_CHAIN).build_chain()
        assert chain.segments[0].radius == 5.0
        assert chain.segments[4].radius == 9.0
        assert chain.socket_slack[1] == 0.4
        assert math.degrees(chain.segments[0].max_bend) == pytest.approx(12.0)

    def test_partial_tarsomere_set_rejected(self):
        cfg = parse_config("[tarsomere_1]\nradius_mm = 4\n")
        with pytest.raises(ConfigError, match="full set"):
            cfg.build_chain()

    def test_default_leg(self):
        leg = Config.default().build_leg()
        assert len(leg.rows) == 4

    def test_leg_from_sections(self):
        text = "".join(
            f"[leg_{name}]\na_mm = {10 * (i + 1)}\ntheta_offset_deg = 0\n"
            f"min_deg = -90\nmax_deg = 90\n"
            for i, name in enumerate(("coxa", "trochanter", "femur", "tibia")))
        leg = parse_config(text).build_leg()
        assert [r.a for r in leg.rows] == [10.0, 20.0, 30.0, 40.0]
        assert leg.joint_limits[0][1] == pytest.approx(math.pi / 2)

    def test_partial_leg_rejected(self):
        cfg = parse_config("[leg_coxa]\na_mm = 10\n")
        with pytest.raises(ConfigError, match="full set"):
            cfg.build_leg()

    def test_mesh_and_limits(self):
        cfg = parse_config("[mesh]\nspacing_mm = 2\ncells_x = 8\n"
                           "[limits]\nhooking_max_n = 30\n")
        mesh = cfg.build_mesh()
        assert mesh.spacing == 2.0
        assert mesh.cells == (8, 4)
        assert cfg.build_limits().hooking_max == 30.0
        assert cfg.build_limits().vertical_max == 2.46

    def test_analytics_mode_validation(self):
        # amplitudes are peak minus touchdown only; the mode key is gone
        with pytest.raises(ConfigError, match="line 2: unknown key "
                                              "'amplitude_mode'"):
            parse_config("[analytics]\namplitude_mode = peak_to_trough\n")


    def test_solver_and_sim_settings(self):
        from tarsim.chain import SOLVE_MAX_ITER, SOLVE_TOL_MM
        cfg = Config.default()
        assert cfg.value("solver", "tol_mm") == SOLVE_TOL_MM
        assert cfg.value("solver", "max_iter") == SOLVE_MAX_ITER
        assert cfg.value("sim", "dt_ms") == 10.0
        assert cfg.value("sim", "penetration_mm") == 5.0
        cfg = parse_config("[solver]\ntol_mm = 1e-6\nmax_iter = 7\n"
                           "[sim]\ndt_ms = 2.5\n")
        assert cfg.value("solver", "tol_mm") == 1e-6
        assert cfg.value("solver", "max_iter") == 7
        assert cfg.value("sim", "dt_ms") == 2.5
        assert cfg.value("sim", "penetration_mm") == 5.0

    def test_defaults_are_the_layer_defaults(self):
        def default(fn, arg):
            return inspect.signature(fn).parameters[arg].default

        cfg = Config.default()
        assert cfg.build_mesh() == MeshGrid()
        assert cfg.build_limits() == ForceLimits()
        assert cfg.value("sim", "dt_ms") == default(run_demo_cycle, "dt_ms")
        assert cfg.value("sim", "penetration_mm") == \
            default(builtin_scenario, "penetration_mm")
        legs = "".join(f"[leg_{name}]\na_mm = 10\n" for name in
                       ("coxa", "trochanter", "femur", "tibia"))
        assert parse_config(legs).build_leg().joint_limits == \
            default_leg_model().joint_limits


class TestScenarios:
    def test_builtin_built(self):
        cfg = Config.default()
        sc = cfg.build_scenario("walk_cycle", cfg.build_chain(),
                                cfg.build_mesh())
        assert sc.phases and sc.allow_flexible

    def test_config_scenario(self):
        cfg = parse_config(
            "[scenario:hop]\nallow_flexible = false\nhome = 120 0 -60\n"
            "phase_1 = down flexible 100 0 0 -20\n"
            "phase_2 = up rigid 100 0 0 0\n")
        sc = cfg.build_scenario("hop", cfg.build_chain(), cfg.build_mesh())
        assert sc.name == "hop"
        assert not sc.allow_flexible
        assert [p.name for p in sc.phases] == ["down", "up"]
        assert sc.phases[0].tip_offset == (0.0, 0.0, -20.0)

    def test_empty_scenario_allowed(self):
        cfg = parse_config("[scenario:noop]\nhome = 120 0 -60\n")
        sc = cfg.build_scenario("noop", cfg.build_chain(), cfg.build_mesh())
        assert sc.phases == ()

    def test_malformed_phase(self):
        cfg = parse_config("[scenario:bad]\nphase_1 = down flexible 100\n")
        with pytest.raises(ConfigError, match="phase_1"):
            cfg.build_scenario("bad", cfg.build_chain(), cfg.build_mesh())

    @pytest.mark.parametrize("phase, message", [
        ("down flexible 0 0 0 -10", "duration must be > 0"),
        ("down soft 100 0 0 -10",
         "mode must be one of ('rigid', 'flexible')")],
        ids=["duration-0", "unknown-mode"])
    def test_phase_the_model_rejects_names_its_line(self, phase, message):
        cfg = parse_config(f"[scenario:x]\nhome = 120 0 -60\n"
                           f"phase_1 = {phase}\n")
        with pytest.raises(ConfigError) as err:
            cfg.build_scenario("x", cfg.build_chain(), cfg.build_mesh())
        assert str(err.value).startswith(
            f"line 3: scenario:x.phase_1: {message}")

    @pytest.mark.parametrize("phases, key, line", [
        ("phase_1 = down flexible 100 0 0 -10\n"
         "phase_3 = up flexible 100 0 0 0\n", "phase_3", 4),
        ("phase_0 = down flexible 100 0 0 -10\n", "phase_0", 3),
        ("phase_2 = down flexible 100 0 0 -10\n"
         "phase_1 = up flexible 100 0 0 0\n"
         "phase_4 = up flexible 100 0 0 0\n"
         "phase_7 = up flexible 100 0 0 0\n", "phase_4", 5)],
        ids=["gap", "phase_0", "out_of_order"])
    def test_phase_after_a_gap_is_config_error(self, phases, key, line):
        # a phase the numbering skips to would be dropped without a word
        cfg = parse_config(f"[scenario:gap]\nhome = 120 0 -60\n{phases}")
        with pytest.raises(ConfigError, match=(
                f"line {line}: scenario:gap.{key}: phases are numbered "
                f"1, 2, 3... with no gap")):
            cfg.build_scenario("gap", cfg.build_chain(), cfg.build_mesh())

    @pytest.mark.parametrize("name", ["../../esc", "a&b<c", "..", "", "a/b",
                                      "a b", "x\\y"])
    def test_scenario_name_must_be_a_file_name_stem(self, name):
        with pytest.raises(ConfigError, match="line 2: scenario name"):
            parse_config(f"# a scenario\n[scenario:{name}]\nhome = 0 0 0\n")

    @pytest.mark.parametrize("name", ["hop", "walk-2.v1", "A_b", "..."])
    def test_scenario_file_name_stems_accepted(self, name):
        cfg = parse_config(f"[scenario:{name}]\nhome = 120 0 -60\n")
        assert cfg.build_scenario(name, cfg.build_chain(),
                                  cfg.build_mesh()).name == name

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError, match="phase_<n>"):
            parse_config("[scenario:x]\nspeed = 3\n")

    @pytest.mark.parametrize("key", ["phase_01", "phase_\u00b2", "phase_<n>",
                                     "phase_"],
                             ids=["leading-zero", "superscript-2",
                                  "placeholder", "no-number"])
    def test_phase_key_needs_a_plain_number(self, key):
        # n is ASCII digits without a leading zero; a digit int() refuses
        # is an unknown key, not a crash
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario:x]\n{key} = 3\n")
        assert str(err.value) == (
            f"line 2: unknown key {key!r} in [scenario:x]; valid keys: "
            f"allow_flexible, expect_failures, home, phase_<n>")

    def test_unknown_builtin_scenario(self):
        cfg = Config.default()
        with pytest.raises(ValueError):
            cfg.build_scenario("nope", cfg.build_chain(), cfg.build_mesh())


# the method that reads each section's keys; for a section that only a
# command reads, that command's arguments, run in-process on the config
READERS = {
    "chain": Config.build_chain,
    "claw": lambda cfg: cfg.build_scenario(
        "walk_cycle", cfg.build_chain(), cfg.build_mesh()),
    "ik": ["leg", "--ik", "150,0,-50"], "solver": ["chain", "--pull", "1"],
    "mesh": Config.build_mesh, "limits": Config.build_limits,
    "analytics": ["gait", "--input", "trial.csv"],
    "retarget": ["leg", "--retarget", "traj.csv"],
    "sim": ["sim", "--scenario", "walk_cycle"],
    **dict.fromkeys(TARSOMERE_SECTIONS, Config.build_chain),
    **dict.fromkeys(LEG_SECTIONS, Config.build_leg),
    "scenario:x": lambda cfg: cfg.build_scenario(
        "x", cfg.build_chain(), cfg.build_mesh()),
}
# a value each kind of key refuses
REFUSED = {config_mod._number: "nan", config_mod._integer: "x",
           config_mod._boolean: "maybe", config_mod._home: "1 2",
           config_mod._phase: "a b"}
SCENARIO_X = {**SCENARIO_KEYS, "phase_1": (None, config_mod._PHASE)}


def full_set_of(section: str) -> tuple:
    """The tarsomere or leg set ``section`` belongs to, else no section."""
    return next((g for g in (TARSOMERE_SECTIONS, LEG_SECTIONS)
                 if section in g), ())


# each key with the sections given beside it, the rest of its full set;
# and socket_slack beside the full tarsomere set, whose slack_mm would
# leave it unread
EVERY_KEY = [(section, key, kind, full_set_of(section))
             for section, keys in [*KEYS.items(), ("scenario:x", SCENARIO_X)]
             for key, (_, kind) in keys.items()] \
    + [("chain", "socket_slack", config_mod._BOOLEAN, TARSOMERE_SECTIONS)]
KEY_IDS = [f"{s}.{k}" for s, k, _, _ in EVERY_KEY[:-1]] \
    + ["chain.socket_slack+tarsomere_1..5"]


@pytest.mark.parametrize("section, key, kind, beside", EVERY_KEY, ids=KEY_IDS)
def test_no_key_is_accepted_but_never_read(section, key, kind, beside,
                                           tmp_path, monkeypatch, capsys):
    # a key parse_config takes but no reader reads would be dropped
    # without a word; a refused value shows that it is read
    text = "".join(f"[{s}]\n" for s in beside if s != section) \
        + f"[{section}]\n{key} = {REFUSED[kind.parse]}\n"
    line = text.count("\n")
    reader = READERS[section]
    if callable(reader):
        with pytest.raises(ConfigError) as err:
            reader(parse_config(text))
        message = str(err.value)
    else:
        monkeypatch.chdir(tmp_path)
        Path("t.conf").write_text(text)
        Path("traj.csv").write_text("t_ms,x_mm,y_mm,z_mm\n0,120,0,-60\n")
        Path("trial.csv").write_text("t_ms,label,x_mm,y_mm,z_mm\n")
        assert cli.main([*reader, "--config", "t.conf", "--out", "out"]) == 2
        prefix, _, message = capsys.readouterr().err.partition(": ")
        assert prefix == "config error"
    assert re.match(rf"line {line}: {re.escape(section)}\.{key}[: ]",
                    message)


# what each kind's parse reads, as the README's configuration table says
READS = {config_mod._number: "number", config_mod._integer: "integer",
         config_mod._boolean: "boolean",
         config_mod._home: "`auto`, or three finite numbers x y z",
         config_mod._phase: "`<name> <mode> <duration_ms> <dx> <dy> <dz>`, "
                            "the numbers finite"}


def configuration_table() -> str:
    """The README's configuration table: one row per key of ``KEYS`` and
    ``SCENARIO_KEYS`` with its default and its kind's rule; sections that
    share one key table (the tarsomere and the leg sets) share rows."""
    groups = []
    for section, keys in KEYS.items():
        if groups and groups[-1][1] is keys:
            groups[-1][0].append(section)
        else:
            groups.append(([section], keys))
    groups.append((["scenario:<name>"],
                   {**SCENARIO_KEYS, "phase_<n>": (None, config_mod._PHASE)}))
    rows = ["| Section | Key | Default | Value |", "|---|---|---|---|"]
    for sections, keys in groups:
        name = f"[{sections[0]}]" + (f"…[{sections[-1]}]"
                                     if len(sections) > 1 else "")
        for key, (default, kind) in keys.items():
            if default is None:
                shown = "-"
            elif isinstance(default, bool):
                shown = f"`{str(default).lower()}`"
            else:
                shown = f"`{default!r}`"
            value = READS[kind.parse] + (f", {kind.rule}" if kind.rule
                                         else "")
            rows.append(f"| `{name}` | `{key}` | {shown} | {value} |")
    return "\n".join(rows) + "\n"


def test_readme_holds_the_configuration_table():
    # a key, default or rule cannot change without its documentation
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = configuration_table()
    assert table in readme.read_text(encoding="utf-8"), table


class TestHash:
    def test_stable_and_order_insensitive(self):
        a = parse_config("[chain]\nk_spring_n_per_mm = 1\nsocket_slack = true\n")
        b = parse_config("[chain]\nsocket_slack = true\nk_spring_n_per_mm = 1\n")
        assert a.hash() == b.hash()

    def test_differs_on_change(self):
        a = parse_config("[chain]\nk_spring_n_per_mm = 1\n")
        b = parse_config("[chain]\nk_spring_n_per_mm = 2\n")
        assert a.hash() != b.hash()
