"""Outside-in tracing of the struveint layers.

``Tracer.install()`` wraps each traced public function and rebinds the
wrapper in every loaded ``struveint`` module namespace that holds the
original.  The package uses from-imports, so patching the defining
module alone would miss the calls made from ``integrals``, ``bounds``
and ``gridcheck``.  The verify checks are wrapped through
``gridcheck.ALL_CHECKS``, which ``run_verification`` iterates.

Spans are never stored: each one is folded into per-name totals as it
closes (calls, work counters, and self time, which is the span minus
the traced spans it encloses).  A default verify makes ~88k
``struve_l`` calls, so storing them would cost more than the work.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (module, public name) -> metric stem.  gamma_fn and log_gamma share one.
TRACED = {
    ("specfun", "struve_l"): "specfun.struve_l",
    ("specfun", "struve_l_scaled"): "specfun.struve_l_scaled",
    ("specfun", "gamma_fn"): "specfun.gamma",
    ("specfun", "log_gamma"): "specfun.gamma",
    ("specfun", "pfq"): "specfun.pfq",
    ("quadrature", "adaptive_quadrature"): "quadrature",
    ("integrals", "integral_quadrature"): "integrals.quadrature",
    ("integrals", "log_integral_quadrature"): "integrals.log_quadrature",
    ("integrals", "integral_series_oracle"): "integrals.series_oracle",
    ("integrals", "integral_power_series"): "integrals.power_series",
    ("bounds", "bound_report"): "bounds.bound_report",
    ("bounds", "ratio_fn"): "bounds.ratio_fn",
    ("bounds", "d_constant"): "bounds.d_constant",
}

_TERMS = {
    "specfun.struve_l",
    "specfun.struve_l_scaled",
    "specfun.pfq",
    "integrals.series_oracle",
    "integrals.power_series",
}


def _work(stem):
    """Work counter taken from a call's result, or None."""
    if stem in _TERMS:
        def terms(stats, args, kwargs, result, inner_calls):
            stats["terms"] += result.terms_used
        return terms
    if stem == "quadrature":
        def subdivisions(stats, args, kwargs, result, inner_calls):
            stats["subdivisions"] += result[2]
        return subdivisions
    if stem == "bounds.d_constant":
        # A call that reaches any traced function did a ratio scan;
        # a memoized one returns without calling anything traced.
        def scans(stats, args, kwargs, result, inner_calls):
            stats["scans"] += inner_calls > 0
        return scans
    return None


class Tracer:
    """Per-name call counts, work counters and self time for one process."""

    def __init__(self):
        self.stats: dict[str, Counter] = defaultdict(Counter)
        #: Distinct argument tuples seen by integral_quadrature.
        self.quadrature_specs: set = set()
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._calls = [0]  # traced calls made so far
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stem):
        stats = self.stats[stem]
        stack = self._stack
        calls = self._calls
        work = _work(stem)
        specs = self.quadrature_specs if stem == "integrals.quadrature" else None

        def wrapper(*args, **kwargs):
            before = calls[0]
            calls[0] = before + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stats["calls"] += 1
                stats["self_s"] += dt - child
            if work is not None:
                work(stats, args, kwargs, result, calls[0] - before - 1)
            if specs is not None:
                specs.add((args, tuple(sorted(kwargs.items()))))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_check(self, check):
        stats = self.stats

        def wrapper(config):
            t0 = perf_counter()
            result = check(config)
            stats[f"gridcheck.{result.name}"]["wall_s"] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = check
        return wrapper

    def install(self) -> None:
        from struveint import gridcheck

        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "struveint" or name.startswith("struveint."))
        }
        wrappers = {}
        for (module, name), stem in TRACED.items():
            original = getattr(modules[f"struveint.{module}"], name)
            wrappers[id(original)] = self._wrap(original, stem)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, name, wrapper)
        self._rebind(
            gridcheck, "ALL_CHECKS",
            tuple(self._wrap_check(c) for c in gridcheck.ALL_CHECKS),
        )

    def _rebind(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict[str, float]:
        """Flat totals ``{"<stem>.<counter>": value}``."""
        out = {
            f"{stem}.{key}": value
            for stem, counters in self.stats.items()
            for key, value in counters.items()
        }
        out["integrals.quadrature.distinct"] = len(self.quadrature_specs)
        return out
