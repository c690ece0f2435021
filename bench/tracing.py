"""In-memory spans around calls into triwit's public functions.

The traced run wraps the public functions named in ``LAYERS`` on every
triwit module attribute that binds them (``search`` imports ``hermitize``
and ``min_gen_eig`` by name, and the package re-exports most names), so a
call is recorded however the caller reached it.  The wrappers are bound
only while a traced op runs; ``uninstall`` restores the original functions.
Nothing inside ``src/`` changes and no private function is wrapped.

A span is (name, op, id, parent, start, end, raised).  Spans stay in memory
while the run measures and are written out once, when it ends.  Per-layer
totals are kept as the spans close: calls, busy time (the span's duration)
and self time (its duration minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

# layer -> public functions whose calls are recorded
LAYERS = {
    "linalg": ("hermitize", "min_gen_eig", "svd_rank"),
    "tensor": ("flip", "unfold"),
    "schmidt": ("schmidt_rank", "schmidt_rank_by_definition", "construct_state_with_sr"),
    "choi": ("kraus_decompose", "is_completely_positive", "pair", "permute_dual"),
    "witness": ("check_111", "classify"),
    "search": ("seesaw_minimize", "sample_state"),
    "cli": ("main",),
}

SPAN_FIELDS = ("name", "op", "id", "parent", "start", "end", "raised")  # one row of ``spans``


class LayerStats:
    __slots__ = ("calls", "busy", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.raised: dict[str, int] = {}


class Tracer:
    """Wrappers that record spans while installed; ``uninstall`` restores the original functions."""

    def __init__(self, triwit_pkg):
        self.op = -1
        self.names: list[str] = []
        self.stats: dict[str, LayerStats] = {}
        self.spans = array("d")
        self._stack: list[list] = []  # open spans: [id, child time, children that raised]
        self._next_id = 0
        # search.seesaw_minimize outcomes, read from each returned SeesawRun
        self.restarts = 0
        self.block_updates = 0
        self.converged = 0
        self.monotone_violations = 0
        # witness.check_111 outcomes: calls whose verdict needed the grid
        self.grid_calls = 0
        self._bindings = self._wrap_all(triwit_pkg)

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats[name] = LayerStats()
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, 0]
            stack.append(frame)
            raised = 0.0
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                raised = 1.0
                stats.raised[type(exc).__name__] = stats.raised.get(type(exc).__name__, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.busy += dur
                stats.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += int(raised)
                spans.extend((name_id, self.op, span_id, parent, start, end, raised))
            if on_return is not None:
                on_return(args, kwargs, out, frame[2])
            return out

        return traced

    def _wrap_all(self, triwit_pkg) -> list[tuple[object, str, object, object]]:
        """Wrap every public function in ``LAYERS``; return (module, attribute, original, wrapper)
        for every module attribute bound to one of them."""
        bindings = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == triwit_pkg.__name__ or key.startswith(triwit_pkg.__name__ + "."))
        ]
        hooks = {"search.seesaw_minimize": self._on_seesaw, "witness.check_111": self._on_check_111}
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"{triwit_pkg.__name__}.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                name = f"{layer}.{func}"
                if name == "search.seesaw_minimize":
                    self._seesaw_sig = inspect.signature(original)
                wrapper = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            bindings.append((mod, attr, original, wrapper))
        return bindings

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _on_seesaw(self, args, kwargs, run, degenerate: int) -> None:
        """Read one restart's outcome from its trace and its ``min_gen_eig`` calls that raised.

        A block update whose pencil is degenerate re-draws the block and
        leaves no trace entry, so it is added back from the raised child calls.
        """
        bound = self._seesaw_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        trace = run.objective_trace
        updates = len(trace) + degenerate
        self.restarts += 1
        self.block_updates += updates
        # one sweep updates the three factor blocks and the core; a restart
        # that used every sweep converged only if its last sweep gained
        # less than convergence_eps, judged from its last recorded values
        sweeps = math.ceil(updates / 4)
        if sweeps < bound.arguments["max_sweeps"] or (
            len(trace) > 4 and trace[-5] - trace[-1] < bound.arguments["convergence_eps"]
        ):
            self.converged += 1
        self.monotone_violations += sum(1 for x, y in zip(trace, trace[1:]) if y > x)

    def _on_check_111(self, args, kwargs, verdict, _raised: int) -> None:
        # certified verdicts come from the closed-form sum or a dominating
        # pair class; refuted and numerically supported ones ran the grid
        if verdict.verdict.value != "certified":
            self.grid_calls += 1

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of BENCHMARK.json, except ``trace.overhead_ratio``."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}
        mge = s["linalg.min_gen_eig"]
        out["linalg.min_gen_eig.calls"] = (mge.calls, "count")
        out["linalg.min_gen_eig.busy_s"] = (mge.busy, "s")
        out["linalg.min_gen_eig.degenerate"] = (mge.raised.get("DegeneratePencil", 0), "count")
        out["linalg.hermitize.calls"] = (s["linalg.hermitize"].calls, "count")
        out["linalg.hermitize.busy_s"] = (s["linalg.hermitize"].busy, "s")
        out["search.seesaw_minimize.calls"] = (s["search.seesaw_minimize"].calls, "count")
        out["search.seesaw_minimize.self_s"] = (s["search.seesaw_minimize"].self_time, "s")
        out["search.block_updates"] = (self.block_updates, "count")
        out["search.sweeps_per_restart.mean"] = (
            self.block_updates / 4 / self.restarts if self.restarts else 0.0, "count"
        )
        out["search.converged_ratio"] = (self.converged / self.restarts if self.restarts else 0.0, "ratio")
        out["search.trace_monotone_violations"] = (self.monotone_violations, "count")
        c111 = s["witness.check_111"]
        out["witness.check_111.busy_s"] = (c111.busy, "s")
        out["witness.check_111.grid_ratio"] = (self.grid_calls / c111.calls if c111.calls else 0.0, "ratio")
        out["witness.classify.busy_s"] = (s["witness.classify"].busy, "s")
        for name in (
            "schmidt.schmidt_rank",
            "schmidt.schmidt_rank_by_definition",
            "schmidt.construct_state_with_sr",
            "choi.kraus_decompose",
            "choi.is_completely_positive",
            "choi.pair",
            "choi.permute_dual",
            "tensor.flip",
            "tensor.unfold",
        ):
            out[f"{name}.busy_s"] = (s[name].busy, "s")
        out["linalg.svd_rank.calls"] = (s["linalg.svd_rank"].calls, "count")
        out["linalg.svd_rank.busy_s"] = (s["linalg.svd_rank"].busy, "s")
        out["search.sample_state.busy_s"] = (s["search.sample_state"].busy, "s")
        out["cli.main.busy_s"] = (s["cli.main"].busy, "s")
        out["cli.main.self_s"] = (s["cli.main"].self_time, "s")
        return out
