"""Per-layer tracing of charform from outside the program.

The tracer rebinds layer functions and methods to wrappers while it is
installed and restores them afterwards; no file of the program changes.
A function imported with ``from .x import y`` is rebound in every charform
module that holds it, so the call sites in ``involutions`` and ``forms`` that
use ``pdivmod`` directly are traced too.

Spans record calls, outermost time and self time (span minus the time its
child spans cover). The field kernels run about two million times in one
extraction, where a span would cost more than the call, so they only count,
and every 64th call keeps its operands for an untraced replay that gives a
per-call cost.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name). "Class.method" patches the class, and every
# alias of the method on it (``__sub__ = __add__``).
SPANS = (
    ("charform.cli", "main", "cli.main"),
    ("charform.serialize", "descriptor_from_json", "serialize.descriptor_from_json"),
    ("charform.serialize", "fe_to_json", "serialize.report"),
    ("charform.serialize", "form_to_json", "serialize.report"),
    ("charform.serialize", "jsonable", "serialize.report"),
    ("charform.extraction", "galois_components", "extraction.galois_components"),
    ("charform.extraction", "extract_symplectic_invariants", "extraction.extract"),
    ("charform.extraction", "extract_unitary_invariants", "extraction.extract"),
    ("charform.extraction", "extract_orthogonal_invariants", "extraction.extract"),
    ("charform.involutions", "symmetric_space", "involutions.symmetric_space"),
    ("charform.involutions", "pfaffian_form", "involutions.pfaffian_form"),
    ("charform.involutions", "reduced_pfaffian", "involutions.reduced_pfaffian"),
    ("charform.involutions", "second_trace_form", "involutions.second_trace_form"),
    ("charform.forms", "normalize", "forms.normalize"),
    ("charform.forms", "is_hyperbolic", "forms.is_hyperbolic"),
    ("charform.forms", "RawQuadraticForm.evaluate", "forms.RawQuadraticForm.evaluate"),
    ("charform.linalg", "Mat.__mul__", "linalg.Mat.mul"),
    ("charform.linalg", "kernel", "linalg.kernel"),
    ("charform.linalg", "rref", "linalg.rref"),
    ("charform.linalg", "Span.__init__", "linalg.Span"),
    ("charform.linalg", "charpoly_raw", "linalg.charpoly_raw"),
    ("charform.quaternions", "Quat.__mul__", "quaternions.Quat.mul"),
)
SUITES = ("fields", "forms", "quaternions", "symplectic", "unitary", "orthogonal")

# (module, attribute, counter name, keep operand samples)
COUNTERS = (
    ("charform.fields", "FieldElement.__mul__", "fields.Fe.mul", True),
    ("charform.fields", "FieldElement.__add__", "fields.Fe.add", False),
    ("charform.fields", "pmul", "fields.pmul", False),
    ("charform.fields", "pdivmod", "fields.pdivmod", True),
    ("charform.fields", "pgcd", "fields.pgcd", True),
    ("charform.fields", "RatFunc.rmul", "fields.RatFunc.rmul", False),
    ("charform.fields", "RatFunc.radd", "fields.RatFunc.radd", False),
)
SAMPLE_EVERY = 64
SAMPLE_CAP = 2048

REPLAYED = ("fields.Fe.mul", "fields.pdivmod", "fields.pgcd")
CALLS_AND_TIME = ("quaternions.Quat.mul", "linalg.Mat.mul", "linalg.kernel", "linalg.rref",
                  "linalg.Span", "linalg.charpoly_raw", "forms.normalize", "forms.is_hyperbolic",
                  "forms.RawQuadraticForm.evaluate")

# Per-layer metrics a traced run reports: name -> unit. Times and counts are
# per operation of the workload.
LAYER_METRICS: Dict[str, str] = {
    **{name + ".calls": "count" for _, _, name, _ in COUNTERS},
    **{name + ".ns": "ns" for name in REPLAYED},
    **{name + suffix: unit for name in CALLS_AND_TIME for suffix, unit in ((".calls", "count"), (".s", "s"))},
    "involutions.symmetric_space.s": "s",
    "involutions.pfaffian_form.build_s": "s",
    "involutions.pfaffian_form.validate_s": "s",
    "involutions.pfaffian_form.cache_hit_ratio": "ratio",
    "involutions.reduced_pfaffian.calls": "count",
    "involutions.reduced_pfaffian.s": "s",
    "involutions.second_trace_form.s": "s",
    "extraction.galois_components.solve_s": "s",
    "extraction.galois_components.checks_s": "s",
    "extraction.galois_components.calls": "count",
    "extraction.extract.s": "s",
    **{f"verify.suite.{suite}.s": "s" for suite in SUITES},
    "serialize.descriptor_from_json.s": "s",
    "serialize.report.s": "s",
    "cli.main.self_s": "s",
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost spans only, so recursion is not counted twice
        self.self_time = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.covered: List[float] = []  # child time covered so far, per open span
        self.spans: Dict[str, SpanStats] = {}
        self.depth: Dict[str, int] = {}
        self.counts: Dict[str, List[int]] = {}
        self.samples: Dict[str, list] = {}
        self.originals: Dict[str, Callable] = {}
        self.pf_calls = 0
        self.pf_hits = 0
        self.twins: List[Tuple[str, object, tuple, dict]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        stats = self.spans.setdefault(name, SpanStats())
        self.depth.setdefault(name, 0)
        covered, depth, clock = self.covered, self.depth, self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            covered.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = covered.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self_time += elapsed - child
                if not depth[name]:
                    stats.total += elapsed
                if covered:
                    covered[-1] += elapsed

        return traced

    def counter(self, name: str, fn: Callable, sampled: bool = False) -> Callable:
        cell = self.counts.setdefault(name, [0])
        if not sampled:
            def counted(*args):
                cell[0] += 1
                return fn(*args)
            return counted
        samples = self.samples.setdefault(name, [])
        self.originals[name] = fn

        def counted_sampled(*args):
            cell[0] += 1
            if not cell[0] % SAMPLE_EVERY and len(samples) < SAMPLE_CAP:
                samples.append(args)
            return fn(*args)

        return counted_sampled

    # --- installation -------------------------------------------------------

    def _rebind(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            orig = owner.__dict__[meth]
            wrapper = make(orig)
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._set(owner, key, wrapper)
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in _charform_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        hooks = {"involutions.pfaffian_form": self._on_pfaffian_form,
                 "extraction.galois_components": self._on_galois_components}
        for mod_name, attr, name, sampled in COUNTERS:
            self._rebind(sys.modules[mod_name], attr, lambda f, n=name, s=sampled: self.counter(n, f, s))
        for mod_name, attr, name in SPANS:
            self._rebind(sys.modules[mod_name], attr,
                         lambda f, n=name: self.span(n, f, hooks.get(n)))
        suites = sys.modules["charform.verify"].SUITES
        for suite in SUITES:
            self._undo.append((suites, suite, suites[suite]))
            suites[suite] = self.span(f"verify.suite.{suite}", suites[suite])

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # --- build/validate and solve/checks splits -----------------------------

    def _on_pfaffian_form(self, args, kwargs) -> None:
        self.pf_calls += 1
        if _arg(args, kwargs, "desc")._srp_raw is not None:
            self.pf_hits += 1
        else:
            self.twins.append(("pfaffian_form", _arg(args, kwargs, "desc"), args, kwargs))

    def _on_galois_components(self, args, kwargs) -> None:
        self.twins.append(("galois_components", _arg(args, kwargs, "desc"), args, kwargs))

    def time_twins(self) -> Dict[str, float]:
        """Time the public ``validate=0`` and ``checks=False`` calls on twin
        descriptors parsed from each traced call's descriptor, untraced.

        build = pfaffian_form(validate=0); validate = full call minus build.
        solve = galois_components(checks=False) with the form already cached;
        checks = the full call, form cached, minus solve. Calls that pass
        their own etale subalgebra L are skipped.
        """
        from charform.extraction import galois_components
        from charform.involutions import pfaffian_form, second_trace_form, symmetric_space
        from charform.serialize import descriptor_from_json, descriptor_to_json

        def fresh(obj):
            twin = descriptor_from_json(obj)
            symmetric_space(twin)
            return twin

        def timed(fn, *args, **kwargs) -> float:
            start = time.perf_counter()
            fn(*args, **kwargs)
            return time.perf_counter() - start

        out = dict.fromkeys(("build_s", "validate_s", "solve_s", "checks_s"), 0.0)
        for kind, desc, args, kwargs in self.twins:
            obj = descriptor_to_json(desc)
            if kind == "pfaffian_form":
                bound = _bind(pfaffian_form, args, kwargs)
                seed, n = bound["seed"], bound["validate"]
                build = timed(pfaffian_form, fresh(obj), validate=0, seed=seed)
                full = timed(pfaffian_form, fresh(obj), validate=n, seed=seed)
                out["build_s"] += build
                out["validate_s"] += full - build
                continue
            if _bind(galois_components, args, kwargs)["L"] is not None:
                continue
            twins = [fresh(obj), fresh(obj)]
            for twin in twins:
                if obj["kind"] in ("split_symp", "index2_symp"):
                    pfaffian_form(twin, validate=0)
                else:
                    second_trace_form(twin)
            solve = timed(galois_components, twins[0], checks=False)
            full = timed(galois_components, twins[1], checks=True)
            out["solve_s"] += solve
            out["checks_s"] += full - solve
        return out

    # --- per-call cost replay -----------------------------------------------

    def replay_ns(self, name: str, min_calls: int = 20000) -> float:
        """Mean ns per call of the untraced kernel over the captured operands
        (0 when the workload never called it)."""
        samples, fn = self.samples.get(name), self.originals.get(name)
        if not samples:
            return 0.0
        reps = -(-min_calls // len(samples))
        start = time.perf_counter_ns()
        for _ in range(reps):
            for args in samples:
                fn(*args)
        return (time.perf_counter_ns() - start) / (reps * len(samples))

    # --- report -------------------------------------------------------------

    def layer_metrics(self, ops: int, twins: Dict[str, float]) -> Dict[str, float]:
        """Every metric of LAYER_METRICS that the trace itself yields, per op."""
        m: Dict[str, float] = {}
        for name, cell in self.counts.items():
            m[name + ".calls"] = cell[0] / ops
        for name in REPLAYED:
            m[name + ".ns"] = self.replay_ns(name)
        for name, st in self.spans.items():
            m[name + ".calls"] = st.calls / ops
            m[name + ".s"] = st.total / ops
            m[name + ".self_s"] = st.self_time / ops
        m["involutions.pfaffian_form.build_s"] = twins["build_s"] / ops
        m["involutions.pfaffian_form.validate_s"] = max(twins["validate_s"], 0.0) / ops
        m["involutions.pfaffian_form.cache_hit_ratio"] = (
            self.pf_hits / self.pf_calls if self.pf_calls else 0.0
        )
        m["extraction.galois_components.solve_s"] = twins["solve_s"] / ops
        m["extraction.galois_components.checks_s"] = max(twins["checks_s"], 0.0) / ops
        return {k: m[k] for k in LAYER_METRICS if k in m}


def _charform_modules():
    return [m for n, m in list(sys.modules.items()) if n == "charform" or n.startswith("charform.")]


def _bind(fn: Callable, args: tuple, kwargs: dict) -> Dict[str, object]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]
