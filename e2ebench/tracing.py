"""Outside-in layer spans for the traced run.

:class:`Tracer` wraps public functions of the program where the engines
call them, from outside: every ``repro`` module attribute bound to a
wrapped function is replaced, and the classes' methods are patched on the
class.  Nothing is installed unless the traced run asks for it, and
:meth:`Tracer.uninstall` restores every original, so the untraced rounds
of a traced run carry no wrapper either.

Each layer accumulates *self* time: a span's duration minus the part its
child spans (of other layers) cover, so the layer times of a solve add up
to the time the spans cover, and the rest of the solve is ``core.other``.
A call into a layer that is already open (``Problem.evaluate_many``
calling the batch evaluator) counts once, for the outer span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(args, result)`` adds to it."""
        stack = self._stack
        self_s, counts = self.self_s, self.counts

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            counts[layer + ".calls"] += 1
            if count is not None:
                counts[layer + ".items"] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module: str, name: str, layer: str,
                       count=None) -> None:
        """Replace every ``repro`` module binding of ``module.name``."""
        original = getattr(sys.modules[module], name)
        traced = self.wrap(layer, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and mod is not None \
                    and mod.__dict__.get(name) is original:
                self._set(mod, name, traced)

    def patch_method(self, cls, name: str, layer: str, count=None) -> None:
        self._set(cls, name, self.wrap(layer, cls.__dict__[name], count))

    def install(self) -> None:
        """Wrap the layer boundaries of a solve (see README for the list)."""
        from repro.core.ga import SimpleGA
        from repro.core.observers import HistoryRecorder
        from repro.core.population import Population
        from repro.encodings.base import Problem
        from repro.parallel.fine_grained import CellularGA
        # import every engine module, so its bindings exist before patching
        import repro.parallel.hybrid  # noqa: F401
        import repro.parallel.island  # noqa: F401

        self.patch_method(HistoryRecorder, "observe", "core.observe")
        self.patch_function("repro.core.substrate", "make_offspring_matrix",
                            "operators.variation")
        self.patch_method(SimpleGA, "make_offspring", "operators.variation")
        self.patch_function("repro.core.substrate", "elitist_merge_arrays",
                            "core.merge")
        self.patch_method(Population, "elitist_merge", "core.merge")
        self.patch_function("repro.core.substrate", "random_matrix",
                            "core.init")
        self.patch_method(SimpleGA, "initialize", "core.init")
        self.patch_method(CellularGA, "initialize", "core.init")
        second_len = lambda args, _r: len(args[1])  # noqa: E731
        for name in ("integrate_immigrant_rows", "integrate_immigrants"):
            self.patch_function("repro.parallel.migration", name,
                                "parallel.migration", count=second_len)
        for name in ("select_emigrant_rows", "select_emigrants"):
            self.patch_function("repro.parallel.migration", name,
                                "parallel.migration")
        self.patch_method(Problem, "evaluate_many", "scheduling.evaluate",
                          count=second_len)
        original_batch = Problem.__dict__["batch_evaluator"]
        wrap = self.wrap

        def batch_evaluator(problem):
            fn = original_batch(problem)
            if fn is None:
                return None
            return wrap("scheduling.evaluate", fn,
                        count=lambda args, _r: len(args[0]))

        self._set(Problem, "batch_evaluator", batch_evaluator)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
