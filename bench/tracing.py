"""Spans and counts around calls into causalkit, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever causalkit refers to it: module globals, module-level dicts (such as
`scoring._FAMILY`) and default arguments (such as `ate(..., infer=...)`).
`uninstall()` puts every original back.  No program file is changed.

Each wrapper records the call's duration and its self time (duration minus
the traced calls made inside it).  Records go to the current bucket; the
benchmark opens one bucket per set-up and per round.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
TRACED = (
    ("pc", "ci_test_g2"),
    ("pc", "learn_skeleton"),
    ("pc", "orient_v_structures"),
    ("pc", "meek_closure"),
    ("pc", "pc_run"),
    ("data", "contingency_counts"),
    ("data", "load_csv"),
    ("scoring", "bdeu_total"),
    ("scoring", "bdeu_family_paper"),
    ("scoring", "bdeu_family_canonical"),
    ("bayesnet", "fit_cpds"),
    ("bayesnet", "variable_elimination"),
    ("intervention", "apply_do"),
    ("intervention", "ate"),
    ("intervention", "ate_grid"),
    ("synth", "sample_from_network"),
    ("synth", "generate_cohort"),
    ("notears", "notears_fit"),
    ("notears", "acyclicity_h"),
    ("llm", "elicit_graph"),
    ("llm", "refine"),
    ("llm", "ReplayBackend.send"),
    ("llm", "HttpBackend.send"),
    ("cli", "dispatch"),
)


class Bucket:
    """Per-function call durations and self-time sums for one phase."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.notears_edges = 0

    def merge(self, raw: dict) -> None:
        for name, values in raw["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        for name, value in raw["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        self.notears_edges += raw["notears_edges"]

    def to_raw(self) -> dict:
        return {
            "durations": self.durations,
            "self_s": self.self_s,
            "notears_edges": self.notears_edges,
        }

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, *names: str) -> float:
        return float(sum(sum(self.durations.get(name, ())) for name in names))

    def quantile(self, name: str, q: int) -> float:
        """q-th percentile of one function's call durations (0 if uncalled)."""
        values = self.durations.get(name, ())
        if len(values) < 2:
            return float(sum(values))
        return statistics.quantiles(values, n=100)[q - 1]


class Tracer:
    def __init__(self):
        self.bucket = Bucket()
        self._stack: list[list[float]] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                bucket = self.bucket
                bucket.durations.setdefault(name, []).append(elapsed)
                bucket.self_s[name] = bucket.self_s.get(name, 0.0) + elapsed - frame[0]
            if name == "notears.notears_fit":
                self.bucket.notears_edges += len(result.dag.edges)
            return result

        return traced

    def install(self) -> None:
        modules = {
            mod: importlib.import_module(f"causalkit.{mod}") for mod, _ in TRACED
        }
        originals = {}
        for mod, attr in TRACED:
            owner = modules[mod]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[method]
                self._set(cls, method, self._wrap(f"{mod}.{attr}", fn))
            else:
                fn = getattr(owner, attr)
                originals[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        loaded = {m.__name__: m for m in modules.values()}
        for name in ("causalkit.fixtures", "causalkit.cli"):
            module = importlib.import_module(name)
            loaded[name] = module
        for module in loaded.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._set(module, attr, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._set_item(value, key, originals[id(item)][1])
                if callable(value) and getattr(value, "__defaults__", None):
                    defaults = value.__defaults__
                    swapped = tuple(
                        originals[id(d)][1]
                        if id(d) in originals and originals[id(d)][0] is d
                        else d
                        for d in defaults
                    )
                    if swapped != defaults:
                        self._set(value, "__defaults__", swapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)
