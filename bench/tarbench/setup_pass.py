"""The work a tarsim user pays for before the first command.

``build()`` is what setup_s times in fresh interpreters (after ``import
tarsim``) and what the traced run records as the config layer's set-up:
the default configuration, the chain, leg and mesh models and the two
built-in scenarios.
"""


def build() -> None:
    from tarsim.config import Config
    cfg = Config.default()
    chain, mesh = cfg.build_chain(), cfg.build_mesh()
    cfg.build_leg()
    for name in ("walk_cycle", "tubed"):
        cfg.build_scenario(name, chain, mesh)
