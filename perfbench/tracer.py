"""Span recorder that wraps the package's public names from outside.

`Tracer.install()` replaces each public method or module function listed in
LAYERS (and the sympy routines the oracle reaches through its `sp` module
attribute) with a wrapper that records a span: name, start, end, parent span
and operation id.  Every reference inside the `evolute` modules is replaced,
so calls made through `from .x import name` are seen too.  `uninstall()`
puts the originals back.  Stages without a public boundary are their
parent's self time.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

# (module, owner class or None, attribute, span name)
LAYERS = (
    ("ring", "GradedClass", "__mul__", "ring.mul"),
    ("ring", "GradedClass", "__rmul__", "ring.mul"),
    ("ring", "GradedClass", "__pow__", "ring.pow"),
    ("ring", "GradedClass", "series_inverse", "ring.series_inverse"),
    ("bundle", "BundleSpace", "tangent_chern", "bundle.tangent_chern"),
    ("bundle", "BundleSpace", "virtual_chern", "bundle.virtual_chern"),
    ("bundle", "BundleSpace", "pushforward", "bundle.pushforward"),
    ("thom", None, "thom_class", "thom.thom_class"),
    ("chow", None, "integrate", "chow.integrate"),
    ("chow", None, "segre", "chow.segre"),
    ("chow", None, "twist_by_line", "chow.twist_by_line"),
    ("varieties", None, "curve_geometry", "varieties.geometry"),
    ("varieties", None, "surface_geometry", "varieties.geometry"),
    ("varieties", None, "hypersurface_geometry", "varieties.geometry"),
    ("pipelines", None, "sigma_degree", "pipelines.sigma_degree"),
    ("pipelines", None, "curve_report", "pipelines.report"),
    ("pipelines", None, "surface_report", "pipelines.report"),
    ("pipelines", None, "surface_report_from_degree", "pipelines.report"),
    ("pipelines", None, "hypersurface_report", "pipelines.report"),
    ("pipelines", None, "osculating_report", "pipelines.report"),
    ("pipelines", None, "salmon_reference_report", "pipelines.report"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "build_parser", "cli.build_parser"),
    ("cli", None, "render_json", "cli.render_json"),
    ("oracle", "PlaneCurve", "from_expr", "oracle.parse"),
    ("oracle", "PlaneCurve", "genericity_flags", "oracle.genericity"),
    ("oracle", None, "center_of_curvature_system", "oracle.system"),
    ("oracle", None, "eliminate", "oracle.eliminate"),
    ("oracle", None, "dup_resultant", "oracle.dup_resultant"),
)

# sympy routines the oracle calls as `sp.<name>`
ORACLE_SYMPY = {
    "resultant": "oracle.first_stage_resultant",
    "gcd": "oracle.gcd",
    "factor_list": "oracle.factor",
    "simplify": "oracle.simplify",
}

# per-layer metrics: (metric, kind, span name or counter)
METRICS = (
    ("ring.mul.calls", "calls", "ring.mul"),
    ("ring.mul.term_pairs", "counter", "ring.mul.term_pairs"),
    ("ring.mul.self_ms", "self", "ring.mul"),
    ("ring.pow.calls", "calls", "ring.pow"),
    ("ring.series_inverse.self_ms", "self", "ring.series_inverse"),
    ("bundle.tangent_chern.ms", "total", "bundle.tangent_chern"),
    ("bundle.virtual_chern.ms", "total", "bundle.virtual_chern"),
    ("bundle.pushforward.ms", "total", "bundle.pushforward"),
    ("bundle.virtual_terms", "counter", "bundle.virtual_terms"),
    ("thom.thom_class.self_ms", "self", "thom.thom_class"),
    ("chow.integrate.ms", "total", "chow.integrate"),
    ("chow.segre.ms", "total", "chow.segre"),
    ("chow.twist_by_line.ms", "total", "chow.twist_by_line"),
    ("varieties.geometry.ms", "total", "varieties.geometry"),
    ("pipelines.sigma_degree.calls", "calls", "pipelines.sigma_degree"),
    ("pipelines.sigma_degree.ms", "total", "pipelines.sigma_degree"),
    ("pipelines.report.self_ms", "self", "pipelines.report"),
    ("cli.build_parser.ms", "total", "cli.build_parser"),
    ("cli.render_json.ms", "total", "cli.render_json"),
    ("cli.main.self_ms", "self", "cli.main"),
    ("oracle.parse.ms", "total", "oracle.parse"),
    ("oracle.genericity.ms", "total", "oracle.genericity"),
    ("oracle.system.ms", "total", "oracle.system"),
    ("oracle.eliminate.self_ms", "self", "oracle.eliminate"),
    ("oracle.first_stage_resultant.ms", "total", "oracle.first_stage_resultant"),
    ("oracle.grid_points", "calls", "oracle.dup_resultant"),
    ("oracle.dup_resultant.ms", "total", "oracle.dup_resultant"),
    ("oracle.sample_bits_max", "counter", "oracle.sample_bits_max"),
    ("oracle.gcd.ms", "total", "oracle.gcd"),
    ("oracle.factor.ms", "total", "oracle.factor"),
    ("oracle.simplify.ms", "total", "oracle.simplify"),
    ("oracle.stage2_degree", "counter", "oracle.stage2_degree"),
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_spaces: weakref.WeakSet = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken at the boundaries ------------------------------------

    def _after_mul(self, args, result) -> None:
        other = args[1]
        width = len(other.terms) if hasattr(other, "terms") else 1
        self.counters["ring.mul.term_pairs"] += len(args[0].terms) * width

    def _virtual_counter(self, original):
        def after(args, result) -> None:
            # the whole virtual series of a space, counted once per space
            space = args[0]
            if space in self._seen_spaces:
                return
            self._seen_spaces.add(space)
            weights = space.table.degrees[:-1]
            for cls in original(space, space.dim):
                for exps in cls.terms:
                    self.counters["bundle.virtual_terms"] += 1
                    base = sum(e * w for e, w in zip(exps, weights))
                    if base <= space.base.dim:
                        self.counters["bundle.virtual_useful_terms"] += 1

        return after

    def _after_dup_resultant(self, args, result) -> None:
        bits = abs(int(result)).bit_length()
        if bits > self.counters["oracle.sample_bits_max"]:
            self.counters["oracle.sample_bits_max"] = bits

    def _after_gcd(self, args, result) -> None:
        # the cross-order gcd is the only oracle gcd taken on two Polys
        if all(hasattr(a, "total_degree") for a in args[:2]):
            self.counters["oracle.stage2_degree"] += sum(a.total_degree() for a in args[:2])

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "evolute" and not mod_name.startswith("evolute."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import evolute.cli  # noqa: F401  (loads every layer)

        afters = {"ring.mul": self._after_mul, "oracle.dup_resultant": self._after_dup_resultant}
        for mod_name, owner_name, attr, name in LAYERS:
            module = sys.modules[f"evolute.{mod_name}"]
            if owner_name is None:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.wrap(name, original, afters.get(name)))
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(self.wrap(name, raw.func))
                new.__set_name__(owner, attr)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                after = afters.get(name)
                if name == "bundle.virtual_chern":
                    after = self._virtual_counter(raw)
                new = self.wrap(name, raw, after)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

        oracle = sys.modules["evolute.oracle"]
        proxy = types.SimpleNamespace(**vars(oracle.sp))
        for attr, name in ORACLE_SYMPY.items():
            after = self._after_gcd if attr == "gcd" else None
            setattr(proxy, attr, self.wrap(name, getattr(oracle.sp, attr), after))
        self._restore.append((oracle, "sp", oracle.sp))
        oracle.sp = proxy

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over everything recorded: call counts, total
        milliseconds (outermost spans of a name only), self milliseconds and
        the counters taken at the boundaries."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: defaultdict = defaultdict(int)
        self_ns: defaultdict = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total_ns[name] += end - start
        out: dict[str, float] = {}
        for metric, kind, key in METRICS:
            if kind == "calls":
                out[metric] = calls[key]
            elif kind == "counter":
                out[metric] = self.counters[key]
            elif kind == "total":
                out[metric] = total_ns[key] / 1e6
            else:
                out[metric] = self_ns[key] / 1e6
        out["bundle.virtual_useful_ratio"] = _ratio(
            self.counters["bundle.virtual_useful_terms"], self.counters["bundle.virtual_terms"]
        )
        out["oracle.useful_degree_ratio"] = _ratio(
            2 * self.counters["oracle.final_degree"], self.counters["oracle.stage2_degree"]
        )
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                "parent": parent, "op": op}) + "\n"
                )
