"""In-process per-layer tracing of liarsim, from outside the package.

``Tracer.install`` replaces every binding of the traced public functions
across the loaded ``liarsim.*`` modules (the defining module, the modules
that imported the name, and the package re-exports) with a timing wrapper,
and ``Tracer.uninstall`` puts the originals back.  No package source
changes.  A span's self time is its duration minus the time of wrapped
calls made inside it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer (module) -> traced public functions
TRACED = {
    "cli": ("main", "resolve_config"),
    "config": ("validate",),
    "inference": ("reasoning_cycle",),
    "statespace": ("cycle_states", "build_initial_state", "kappa", "state_to_json"),
    "measurement": ("collapse", "projection_probability"),
    "evolution": (
        "build_evolution", "time_grid", "propagate", "apply_steps",
        "probability_trace", "trace_to_csv",
    ),
    "audit": ("verify_minimality",),
    "verify": ("run_verification",),
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.sparse_states = 0
        self.entries_scanned = 0
        self.integral_propagations = 0
        self.exact_route_calls = 0
        self.array_bytes = 0
        self._stack: list[list] = []  # [span key, time in wrapped children]
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, key: str, args, kwargs, result) -> None:
        if key == "measurement.projection_probability":
            state = args[0] if args else kwargs["state"]
            self.entries_scanned += len(state.amplitudes)
        elif key == "evolution.propagate":
            tau = args[2] if len(args) > 2 else kwargs["tau"]
            if tau == int(tau):
                self.integral_propagations += 1
        elif key == "evolution.apply_steps":
            if self._stack and self._stack[-1][0] == "evolution.propagate":
                self.exact_route_calls += 1
        elif key == "evolution.build_evolution":
            size = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
            self.array_bytes = max(self.array_bytes, size)

    def _wrap(self, key: str, fn):
        def traced(*args, **kwargs):
            self._stack.append([key, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                _, children = self._stack.pop()
                self.self_s[key] += elapsed - children
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            self._observe(key, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``liarsim.*`` binding of the traced functions."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"liarsim.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "liarsim" and not modname.startswith("liarsim."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        sparse = sys.modules["liarsim.statespace"].SparseState
        original_init = sparse.__post_init__

        def counted_init(state):
            self.sparse_states += 1
            original_init(state)

        self._patched.append((sparse, "__post_init__", original_init))
        sparse.__post_init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        out = {}
        for layer, names in TRACED.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
        calls = self.calls["measurement.projection_probability"]
        out["statespace.sparse_states"] = self.sparse_states
        out["measurement.entries_scanned"] = self.entries_scanned
        out["measurement.scan_ratio"] = calls / self.entries_scanned if self.entries_scanned else 0.0
        out["evolution.array_mb"] = self.array_bytes / 1e6
        out["evolution.exact_route_share"] = (
            self.exact_route_calls / self.integral_propagations
            if self.integral_propagations else 0.0
        )
        return out
