"""Span recorder for the traced run: wraps tarsim's layer boundaries.

``instrument(recorder)`` replaces every public function of the layer
modules, in every ``tarsim`` module namespace that binds it (``contact``
imports ``solve_bend_from_pull`` by name, the package re-exports most
functions), and the public methods of ``Config``, with a wrapper that
records one span per call.  ``restore`` puts every original object back.
Spans stay in memory as parallel lists (name, start, end, parent, command
id) and are written once, at the end, by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("chain", "leg", "contact", "gait", "stats", "config", "cli",
          "svgplot")


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.commands: list = []
        self.command_id = None
        # name -> reducer(args, kwargs, result or exception); the reduced
        # values are kept in ``returns[name]`` as (span index, value)
        self.keep: dict = {}
        self.returns: dict = {}
        self._stack: list[int] = []

    def __len__(self):
        return len(self.names)

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, commands, stack = self.parents, self.commands, self._stack
        reduce = self.keep.get(name)
        kept = self.returns.setdefault(name, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command_id)
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if reduce is not None:
                    kept.append((idx, reduce(args, kwargs, exc)))
                raise
            ends[idx] = clock()
            stack.pop()
            if reduce is not None:
                kept.append((idx, reduce(args, kwargs, result)))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"name": self.names, "start": self.starts,
                       "end": self.ends, "parent": self.parents,
                       "command": self.commands}, fh)


def layer_functions() -> dict:
    """Original function -> span name for every public layer function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tarsim.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == mod.__name__:
                found[obj] = f"{layer}.{name}"
    from tarsim.config import Config
    for name, obj in vars(Config).items():
        if not name.startswith("_") and inspect.isfunction(obj):
            found[obj] = f"config.Config.{name}"
    return found


def instrument(recorder: SpanRecorder) -> list:
    """Wrap every binding of every layer function; returns the patch list."""
    from tarsim.config import Config
    originals = layer_functions()
    wrappers = {fn: recorder.wrap(name, fn) for fn, name in originals.items()}
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "tarsim" or n.startswith("tarsim.")] + [Config]
    patches = []
    for owner in owners:
        for name, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((owner, name, obj))
                setattr(owner, name, wrappers[obj])
    return patches


def restore(patches) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(idx, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out
