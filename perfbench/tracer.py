"""Per-layer spans for pvdyn, recorded from outside the library.

The tracer wraps every public function of each layer module (and the
`PvWorkspace` constructor) in a timing wrapper, and while installed
rebinds each name in every `pvdyn` module that holds it.  Calls between
modules, and calls inside a module through its globals, then pass through
the wrappers, so nested calls are attributed: an RK4 step shows its
forward-kinematics calls as children.  No source file is edited.

Spans live in memory for the duration of one op and are folded into
per-name totals after the op returns, outside its timing.  A span's self
time and self flops are its inclusive values minus those of its direct
children, so the self values of all spans of an op sum to the op's
inclusive totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("spatial", "kinematics", "constrained", "delassus", "baseline",
          "linalg", "integrate")
SOLVERS = frozenset(("constrained.pv_solve", "constrained.pv_early_solve",
                     "constrained.pv_soft_solve", "constrained.constrained_aba",
                     "baseline.aba"))


class Tracer:
    """Spans and per-name totals for the ops run while it is installed.

    `flop_total` reads the library's flop counter; `errors` is the tuple
    of library error types a span records as failed.  Wrappers record
    only while `active` is set, which the harness does around each op.
    """

    def __init__(self, flop_total, errors):
        self.active = False
        self.spans: list = []
        self.current = -1
        self.ops = 0
        # name -> [calls, self_ns, self_flops, errors]
        self.stats: dict[str, list] = {}
        self.caba = [0, 0, 0]           # calls, iterations, converged
        self.pv_early = [0, 0.0]        # calls, sum of base-dual share
        self.solver_calls_from_integrate = 0
        self._flop_total = flop_total
        self._errors = errors
        self._bindings = self._bind()

    # -- wiring -----------------------------------------------------------

    def _targets(self):
        """(function, span name) for every public function of every layer."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"pvdyn.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((obj, f"{layer}.{attr}"))
        return out

    def _bind(self):
        wrapped = {}
        for fn, name in self._targets():
            wrapped[fn] = self._wrap(name, fn, self._observer(name))
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pvdyn" or mod_name.startswith("pvdyn.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    bindings.append((mod, attr, obj, wrapped[obj]))
        ws_cls = sys.modules["pvdyn.constrained"].PvWorkspace
        init = ws_cls.__init__
        bindings.append((ws_cls, "__init__", init,
                         self._wrap("constrained.PvWorkspace", init, None)))
        return bindings

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _observer(self, name):
        if name == "constrained.constrained_aba":
            def see_caba(args, kwargs, sol):
                self.caba[0] += 1
                self.caba[1] += sol.iterations
                self.caba[2] += sol.status == "converged"
            return see_caba
        if name == "constrained.pv_early_solve":
            def see_early(args, kwargs, sol):
                cs = args[3] if len(args) > 3 else kwargs["cs"]
                ws = args[4] if len(args) > 4 else kwargs.get("ws")
                if ws is not None and cs.m:
                    self.pv_early[0] += 1
                    self.pv_early[1] += ws.counters["base_dual_dim"] / cs.m
            return see_early
        return None

    def _wrap(self, name, fn, observer):
        spans = self.spans
        clock = time.perf_counter_ns
        flop_total = self._flop_total
        errors = self._errors
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = tracer.current
            spans.append(None)
            tracer.current = idx
            failed = False
            f0 = flop_total()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:
                failed = True
                raise
            finally:
                t1 = clock()
                spans[idx] = (name, parent, t1 - t0, flop_total() - f0, failed)
                tracer.current = parent
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def fold(self) -> None:
        """Fold the finished op's spans into the per-name totals."""
        spans = self.spans
        child_ns = [0] * len(spans)
        child_fl = [0] * len(spans)
        for name, parent, dur, fl, _ in spans:
            if parent >= 0:
                child_ns[parent] += dur
                child_fl[parent] += fl
        stats = self.stats
        for idx, (name, parent, dur, fl, failed) in enumerate(spans):
            if (name in SOLVERS and parent >= 0
                    and spans[parent][0].startswith("integrate.")):
                self.solver_calls_from_integrate += 1
            row = stats.get(name)
            if row is None:
                row = stats[name] = [0, 0, 0, 0]
            row[0] += 1
            row[1] += dur - child_ns[idx]
            row[2] += fl - child_fl[idx]
            row[3] += failed
        spans.clear()
        self.current = -1
        self.ops += 1

    def total(self, key, column: int) -> float:
        """Per-op sum of one column over the spans `key` names: a layer
        prefix such as "spatial." ("" for all), a span name, or a tuple."""
        keys = (key,) if isinstance(key, str) else key

        def match(name):
            return any(name == k or ((k == "" or k.endswith(".")) and name.startswith(k))
                       for k in keys)
        s = sum(row[column] for name, row in self.stats.items() if match(name))
        return s / max(self.ops, 1)
