"""Layer attribution from outside the program: wrap public calls, keep spans.

:func:`install` wraps each traced layer's public functions and pass methods
under every module name the callers look them up by (``peephole`` binds
``allclose_up_to_global_phase`` at import, so wrapping only
``repro.linalg.predicates`` would miss its calls).  A wrapped call records a
span ``(name, start, end, parent)`` into compact in-memory arrays while
:attr:`Tracer.recording` is on; :meth:`Tracer.save` writes them out at the
end of the run, and :meth:`Tracer.totals` derives per-span-name counts,
inclusive times and self times from them.  :meth:`Tracer.bare` takes every
wrapper out for a block, and :func:`overhead_share` uses it to time the
same compiles with and without tracing.

Nothing here changes what the program computes: a wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PASSES", "LINALG", "Tracer", "install", "overhead_share", "recording"]

#: Pass names (``CompilerPass.name``) reported as ``passes.<name>.*``.
PASSES = (
    "template_synthesis",
    "hierarchical_synthesis",
    "fuse_2q_blocks",
    "mirror_near_identity",
    "sabre_route",
    "finalize_to_can",
    "decompose_to_cnot",
    "peephole",
)

#: Wrapped linear-algebra functions: (defining module, function name).
LINALG = (
    ("repro.linalg.weyl", "weyl_coordinates"),
    ("repro.linalg.weyl", "kak_decompose"),
    ("repro.linalg.su2", "zyz_angles"),
    ("repro.linalg.predicates", "allclose_up_to_global_phase"),
)


class Tracer:
    """In-memory span store plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.recording = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any, Callable]] = []

    # -- recording ----------------------------------------------------------
    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_exit: Optional[Callable[[tuple, Any], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call while :attr:`recording` is on."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer._start)
            tracer._name.append(name_id)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._end.append(0.0)
            stack.append(index)
            start = clock()
            tracer._start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._end[index] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._end[index] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
        }

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time[: len(duration)]
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write the spans (and the name table) as one ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    # -- switching the wrappers off -----------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def bare(self):
        """Run the block with every wrapper taken out: the program as shipped."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, replacement in self._patches:
                setattr(owner, attr, replacement)


@contextlib.contextmanager
def recording(tracer: Optional[Tracer]):
    """Record spans into ``tracer`` (when there is one) inside the block."""
    if tracer is not None:
        tracer.recording = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.recording = False


def overhead_share(tracer: Tracer, replays: List[Callable[[], float]]) -> Tuple[float, float, float]:
    """What tracing adds: traced over bare seconds of the same compiles, minus one.

    Each replay compiles once with the wrappers taken out and once traced,
    alternating which goes first so that the caches the first compile warms
    favour neither side.  Returns the share and the bare and traced seconds.
    """
    bare = traced = 0.0
    for index, run in enumerate(replays):
        for on in (False, True) if index % 2 == 0 else (True, False):
            if on:
                with recording(tracer):
                    traced += run()
            else:
                with tracer.bare():
                    bare += run()
    return traced / bare - 1.0, bare, traced


def _rebind(tracer: Tracer, original: Callable, replacement: Callable) -> None:
    """Point every ``repro.*`` module global bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                tracer.patch(module, attr, replacement)


def _wrap_method(tracer: Tracer, cls: type, method: str, name: str, on_exit=None, on_error=None):
    original = getattr(cls, method)
    tracer.patch(cls, method, tracer.wrap(name, original, on_exit=on_exit, on_error=on_error))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points for ``tracer``."""
    import importlib

    import repro.target.api as api
    from repro.compiler.passes.decompose import DecomposeToCnotPass
    from repro.compiler.passes.finalize import FinalizeToCanPass
    from repro.compiler.passes.fuse import Fuse2QBlocksPass
    from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
    from repro.compiler.passes.mirror import MirrorNearIdentityPass
    from repro.compiler.passes.peephole import PeepholeOptimizationPass
    from repro.compiler.passes.route import SabreRoutingPass
    from repro.compiler.passes.template_synthesis import TemplateSynthesisPass
    from repro.compiler.routing import sabre
    from repro.kernels import kak_batch
    from repro.synthesis import two_qubit
    from repro.synthesis.approximate import ApproximateSynthesizer

    # target.compile: the shared entry point, looked up by the benchmark at
    # call time as ``repro.target.api.compile``.
    original_compile = api.compile
    _rebind(tracer, original_compile, tracer.wrap("target.compile", original_compile))

    # Pass spans: the method the PassManager calls (run_ir for IR-native
    # passes, run for circuit passes), plus the output gate count.
    for cls in (
        TemplateSynthesisPass,
        HierarchicalSynthesisPass,
        Fuse2QBlocksPass,
        MirrorNearIdentityPass,
        SabreRoutingPass,
        FinalizeToCanPass,
        DecomposeToCnotPass,
        PeepholeOptimizationPass,
    ):
        key = f"passes.{cls.name}"

        def on_exit(args, result, key=key):
            tracer.count(f"{key}.gates_out", len(result))

        if cls is MirrorNearIdentityPass:

            def on_exit(args, result, key=key):  # noqa: F811 - mirror adds a count
                tracer.count(f"{key}.gates_out", len(result))
                tracer.count(f"{key}.mirrored", args[2].get("mirrored_gate_count", 0))

        if cls is SabreRoutingPass:

            def on_exit(args, result, key=key):  # noqa: F811 - routing adds counts
                properties = args[2]
                tracer.count(f"{key}.gates_out", len(result))
                tracer.count("routing.inserted_swaps", properties.get("inserted_swaps") or 0)
                tracer.count("routing.absorbed_swaps", properties.get("absorbed_swaps") or 0)
                # A noise-aware pass falls back to distance routing when the
                # weighted run hits the step limit (its result is then the
                # distance result, still labelled "noise") or scores worse.
                gave_up = tracer.counters.pop("routing.gave_up_in_pass", 0)
                if args[0].noise_aware:
                    tracer.count("routing.noise_passes")
                    if gave_up or properties.get("routing_strategy") == "distance":
                        tracer.count("routing.noise_fallbacks")

        method = "run_ir" if getattr(cls, "consumes", "circuit") == "ir" else "run"
        _wrap_method(tracer, cls, method, key, on_exit=on_exit)

    # Routing runs; a RuntimeError is SABRE giving up at its step limit.
    def on_route_error(exc):
        if isinstance(exc, RuntimeError):
            tracer.count("routing.step_limit_hits")
            tracer.counters["routing.gave_up_in_pass"] = 1

    _wrap_method(tracer, sabre.SabreRouter, "run_graph", "routing.run", on_error=on_route_error)

    # The SABRE scorer is built per routing run by make_sabre_scorer; wrap
    # what it returns so every stall-scoring call is a span.
    original_factory = sabre.make_sabre_scorer

    def traced_factory(*args, **kwargs):
        return tracer.wrap("kernels.sabre_score", original_factory(*args, **kwargs))

    _rebind(tracer, original_factory, traced_factory)

    def on_batch(args, result):
        tracer.count("kernels.kak_batch.items", len(args[0]))

    original_batch = kak_batch.kak_decompose_batch
    _rebind(tracer, original_batch, tracer.wrap("kernels.kak_batch", original_batch, on_exit=on_batch))

    original_cnot = two_qubit.two_qubit_to_cnot_circuit
    _rebind(tracer, original_cnot, tracer.wrap("synthesis.two_qubit_to_cnot", original_cnot))
    _wrap_method(tracer, ApproximateSynthesizer, "synthesize", "synthesis.approximate")

    for module_name, function in LINALG:
        module = importlib.import_module(module_name)
        original = getattr(module, function)
        _rebind(tracer, original, tracer.wrap(f"linalg.{function}", original))
