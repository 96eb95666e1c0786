"""Spans around the public ortholeg API, installed from outside the package.

``Tracer.install`` replaces every public function of every ``ortholeg.*``
module, in every ortholeg namespace that imported it, plus the LaurentPoly
ring operations and ``FactorPair.build``, with a wrapper that records a span
(name, start, end, parent, failed).  ``uninstall`` puts every original back.
Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time its direct child spans
cover.  Per-call counters (coefficient products, grid points, samples, ...)
are collected by hooks that run after the call; their cost is charged to the
tracer, not to the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# The modules of src/ortholeg; a span belongs to the layer it is defined in.
LAYERS = (
    "ratpoly", "legendre", "christoffel", "factorization", "partial_fractions",
    "quadrature_verify", "sampling_ls", "ledger", "cli", "certificates",
)

# Methods wrapped besides module-level functions: (module, class, attribute).
METHODS = (
    ("ratpoly", "LaurentPoly", "__mul__"),
    ("ratpoly", "LaurentPoly", "__rmul__"),
    ("ratpoly", "LaurentPoly", "__add__"),
    ("ratpoly", "LaurentPoly", "__sub__"),
    ("ratpoly", "LaurentPoly", "__call__"),
    ("factorization", "FactorPair", "build"),
)

MUL = ("ratpoly.LaurentPoly.__mul__", "ratpoly.LaurentPoly.__rmul__")
EVAL = "ratpoly.LaurentPoly.__call__"
BUILDS = ("factorization.fn_from_definition", "factorization.gn_build",
          "factorization.FactorPair.build")
GRAM = "quadrature_verify.orthogonality_numeric"
PFD = ("partial_fractions.check_pfd_plus", "partial_fractions.check_pfd_minus")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _public_functions(module):
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
            continue
        home = getattr(obj, "__module__", "") or ""
        if home.startswith("ortholeg.") and not obj.__name__.startswith("_"):
            yield attr, obj


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.paused = False
        self._ids: dict[str, int] = {}
        self._span_name: list[int] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._counts: Counter = Counter()
        self._pairs: set = set()
        self._built: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ortholeg" or name.startswith("ortholeg."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in _public_functions(module):
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        for module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules.get(f"ortholeg.{module_name}"), class_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"{module_name}.{class_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        spans, span_name, child, stack = self.spans, self._span_name, self._child, self._stack

        def open_span() -> int:
            idx = len(spans)
            spans.append(None)
            span_name.append(nid)
            child.append(0.0)
            stack.append(idx)
            return idx

        def close_span(idx: int, start: float, failed: bool) -> float:
            end = perf_counter()
            stack.pop()
            parent = stack[-1] if stack else -1
            spans[idx] = (nid, start, end, parent, failed)
            if parent >= 0:
                child[parent] += end - start
            return end

        if inspect.isgeneratorfunction(fn):
            # The span lasts from the first resume to exhaustion; callers in
            # ortholeg consume their generators completely before returning.
            def wrapper(*args, **kwargs):
                if self.paused:
                    return (yield from fn(*args, **kwargs))
                idx = open_span()
                start, failed = perf_counter(), True
                try:
                    result = yield from fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    close_span(idx, start, failed)
        else:
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                idx = open_span()
                start, failed = perf_counter(), True
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                finally:
                    end = close_span(idx, start, failed)
                if hook is not None:
                    hook(args, kwargs, result)
                    if stack:
                        child[stack[-1]] += perf_counter() - end
                return result

        wrapper.perfbench_span = name
        return wrapper

    # -- counters: one hook per traced name, run after the call ---------------

    def _count_mul(self, args, kwargs, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        self._counts["mul_coeff_products"] += len(a.coeffs) * (
            len(b.coeffs) if hasattr(b, "coeffs") else 1)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.coeffs), default=0)
        self._counts["max_coeff_bits"] = max(self._counts["max_coeff_bits"], bits)

    _hook_ratpoly_LaurentPoly___mul__ = _count_mul
    _hook_ratpoly_LaurentPoly___rmul__ = _count_mul

    def _hook_legendre_legendre_product_expand(self, args, kwargs, result) -> None:
        self._pairs.add((_arg(args, kwargs, 0, "i"), _arg(args, kwargs, 1, "j")))

    def _hook_legendre_legendre_all(self, args, kwargs, result) -> None:
        gram = self._ids.get(GRAM)
        if any(self._span_name[i] == gram for i in self._stack):
            self._counts["points_evaluated"] += getattr(_arg(args, kwargs, 1, "x"), "size", 1)

    def _hook_christoffel_q_basis_all(self, args, kwargs, result) -> None:
        self._counts["q_basis_values"] += result.size

    def _count_build(self, args, kwargs, result) -> None:
        self._built.add(_arg(args, kwargs, 0, "n"))

    _hook_factorization_fn_from_definition = _count_build
    _hook_factorization_gn_build = _count_build

    def _hook_factorization_FactorPair_build(self, args, kwargs, result) -> None:
        self._built.add(_arg(args, kwargs, 1, "n"))  # args[0] is the class

    def _hook_quadrature_verify_orthogonality_numeric(self, args, kwargs, result) -> None:
        self._counts["points_used"] += result.points_used

    def _hook_quadrature_verify_unit_circle_integral(self, args, kwargs, result) -> None:
        self._counts["contour_points"] += _arg(args, kwargs, 1, "points")

    def _hook_sampling_ls_sample_arcsine(self, args, kwargs, result) -> None:
        self._counts["samples"] += len(result.points)

    def _hook_sampling_ls_fit_least_squares(self, args, kwargs, result) -> None:
        if result.gram_deviation <= 0.5:
            self._counts["stable_fits"] += 1

    def _hook_ledger_identity_ledger(self, args, kwargs, result) -> None:
        self._counts["certificates"] += len(result)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<name>``; call after ``uninstall``."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        layers = {layer: [0, 0.0, 0] for layer in LAYERS}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _, failed = span
            name = self.names[nid]
            calls[name] += 1
            seconds[name] += end - start
            stats = layers.get(name.split(".", 1)[0])
            if stats is not None:
                stats[0] += 1
                stats[1] += end - start - self._child[idx]
                stats[2] += failed
        out: dict[str, float] = {}
        for layer, (count, self_s, failed) in layers.items():
            out[f"{layer}.calls"] = count
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.failed"] = failed
        counts = self._counts
        info = sys.modules["ortholeg.legendre"].legendre_on_circle.cache_info()
        lookups = info.hits + info.misses
        evaluated = counts["points_evaluated"]
        out.update({
            "ratpoly.mul_calls": sum(calls[n] for n in MUL),
            "ratpoly.mul_coeff_products": counts["mul_coeff_products"],
            "ratpoly.mul_s": sum(seconds[n] for n in MUL),
            "ratpoly.max_coeff_bits": counts["max_coeff_bits"],
            "ratpoly.eval_calls": calls[EVAL],
            "ratpoly.eval_s": seconds[EVAL],
            "legendre.product_expand_calls": calls["legendre.legendre_product_expand"],
            "legendre.product_expand_distinct": len(self._pairs),
            "legendre.product_expand_s": seconds["legendre.legendre_product_expand"],
            "legendre.on_circle_cache_hit_ratio": info.hits / lookups if lookups else 0.0,
            "christoffel.kn_exact_s": seconds["christoffel.kn_exact"],
            "christoffel.q_basis_values": counts["q_basis_values"],
            "factorization.build_calls": sum(calls[n] for n in BUILDS),
            "factorization.build_distinct": len(self._built),
            "factorization.roots_s": seconds["factorization.fn_roots"],
            "partial_fractions.abcd_s": seconds["partial_fractions.build_abcd"],
            "partial_fractions.pfd_s": sum(seconds[n] for n in PFD),
            "partial_fractions.orthogonality_exact_calls": calls["partial_fractions.orthogonality_exact"],
            "quadrature_verify.points_evaluated": evaluated,
            "quadrature_verify.points_used": counts["points_used"],
            "quadrature_verify.grid_yield": counts["points_used"] / evaluated if evaluated else 0.0,
            "quadrature_verify.contour_points": counts["contour_points"],
            "sampling_ls.samples": counts["samples"],
            "sampling_ls.fit_s": seconds["sampling_ls.fit_least_squares"],
            "sampling_ls.stable_fits": counts["stable_fits"],
            "ledger.certificates": counts["certificates"],
            "ledger.serialize_s": seconds["ledger.ledger_lines"],
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per line: name, start, end (perf_counter s), parent index, failed."""
        with open(path, "w", encoding="utf-8") as handle:
            for nid, start, end, parent, failed in (s for s in self.spans if s):
                handle.write(json.dumps({"name": self.names[nid], "start": start, "end": end,
                                         "parent": parent, "failed": failed}) + "\n")
