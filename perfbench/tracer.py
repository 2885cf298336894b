"""Per-layer tracing from outside the package.

`install()` replaces the public functions of `core`, `families`,
`series`, `casemap`, `verify` and `cli` with timing wrappers, in every
module namespace that binds them, so calls between modules go through
the wrappers too.  Nothing under `src/` is changed.

Every wrapped call updates an aggregate per (name, parent) pair: calls,
total time and self time, where self time is the call's duration minus
the time spent in wrapped calls it made.  Coarse calls (the verify
drivers, sampler and table builds, series products) are also kept as
spans with a parent span.  Counters taken at the same boundaries give
the work ratios reported by `metrics()`.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "-"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, span id or None, child time]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[dict] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: Counter = Counter()
        self.max_query: dict[str, int] = {}
        self.classified: dict[str, set] = {"source": set(), "image": set()}

    def _enter(self, name: str, coarse: bool) -> list:
        span = None
        if coarse:
            span = len(self.spans)
            self.spans.append({"id": span, "parent": self._open_span(), "name": name})
        frame = [name, span, 0.0]
        self.stack.append(frame)
        return frame

    def _open_span(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _exit(self, frame: list, start: float, end: float) -> float:
        self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        entry = self.stats[(frame[0], parent[0] if parent else ROOT)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if frame[1] is not None:
            self.spans[frame[1]].update(start=start, end=end)
        return duration

    def wrap(self, name, fn, *, coarse=False, keep_durations=False, after=None):
        """A wrapper timing each call of fn; `after(args, result)` updates counters."""

        def traced(*args, **kwargs):
            frame = self._enter(name, coarse)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(frame, start, perf_counter())
            if keep_durations:
                self.durations[name].append(duration)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn, *, after_item=None):
        """Like `wrap`, but times each step of the generator fn returns."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter(name, False)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, start, perf_counter())
                if after_item is not None:
                    after_item(args, item)
                yield item

        traced.__wrapped__ = fn
        return traced

    def self_s(self, name: str) -> float:
        return sum(entry[2] for (called, _), entry in self.stats.items() if called == name)

    def calls(self, name: str) -> int:
        return sum(entry[0] for (called, _), entry in self.stats.items() if called == name)

    def table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": entry[0], "total_s": entry[1], "self_s": entry[2]}
            for (name, parent), entry in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]


def _rebind(original, replacement, modules) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions; call after importing parityparts."""
    import parityparts
    from parityparts import casemap, cli, core, families, series, verify

    modules = (parityparts, core, families, series, casemap, verify, cli)
    count = tracer.counters

    def bind(module, attr, name, **options):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, **options), modules)

    # core: Partition construction goes through __new__, wrapped on the class.
    new = core.Partition.__new__
    core.Partition.__new__ = staticmethod(tracer.wrap("core.Partition", new))
    bind(core, "parity_split", "core.parity_split")

    # families
    def enumerated(args, item):
        count["enumerated"] += 1

    enumerate_family = families.enumerate_family
    _rebind(enumerate_family,
            tracer.wrap_generator("families.enumerate_family", enumerate_family, after_item=enumerated),
            modules)
    bind(families, "in_family", "families.in_family")

    def sampler_built(args, result):
        sampler = args[0]
        count["sampler.table_cells"] += 2 * (sampler.n + 1) ** 2

    sampler = families.FamilySampler
    sampler.__init__ = tracer.wrap("families.FamilySampler.build", sampler.__init__,
                                   coarse=True, after=sampler_built)
    sampler.unrank = tracer.wrap("families.unrank", sampler.unrank, keep_durations=True)

    def table_built(args, table):
        count["table.cells_built"] += (table.max_n + 1) ** 2

    build = families.CountTable.build.__func__
    families.CountTable.build = classmethod(
        tracer.wrap("families.CountTable.build", build, coarse=True, after=table_built))

    def counted(args, result):
        family, n = args
        tracer.max_query[family.value] = max(n, tracer.max_query.get(family.value, -1))

    bind(families, "count_family", "families.count_family", after=counted)

    # series
    def multiplied(args, result):
        a, b = args
        order = result.order
        count["mul.nonzero"] += sum(1 for c in a.coeffs[: order + 1] if c)
        count["mul.nonzero"] += sum(1 for c in b.coeffs[: order + 1] if c)
        count["mul.operand_terms"] += 2 * (order + 1)

    def inverted(args, result):
        count["invert.nonzero"] += sum(1 for c in args[0].coeffs if c)
        count["invert.operand_terms"] += len(args[0].coeffs)

    bind(series, "series_mul", "series.series_mul", coarse=True, after=multiplied)
    bind(series, "series_invert", "series.series_invert", coarse=True, after=inverted)
    for attr in ("euler_inverse_even", "series_p_eu_od", "series_p_od_eu"):
        bind(series, attr, f"series.{attr}", coarse=True)

    # casemap
    bind(casemap, "source_case_matches", "casemap.source_case_matches",
         after=lambda args, _: tracer.classified["source"].add(args[0]))
    bind(casemap, "image_case_matches", "casemap.image_case_matches",
         after=lambda args, _: tracer.classified["image"].add(args[0]))
    for attr in ("classify_source", "classify_image", "forward", "backward", "witness"):
        bind(casemap, attr, f"casemap.{attr}")

    # verify
    def reported(args, report):
        count["verify.checks"] += sum(t.tested for t in report.per_case.values())
        count["verify.checks"] += len(report.inequalities or ())
        count["verify.skipped"] += sum(t.skipped for t in report.per_case.values())
        count["verify.failures"] += len(report.failures)

    for attr in ("verify_exhaustive", "verify_sampled", "verify_inequality", "verify_witnesses"):
        bind(verify, attr, f"verify.{attr}", coarse=True, after=reported)

    # cli
    bind(cli, "run", "cli.run", coarse=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    count = tracer.counters
    sources = len(tracer.classified["source"])
    images = len(tracer.classified["image"])
    unrank = tracer.durations.get("families.unrank") or [0.0]
    p99 = statistics.quantiles(unrank, n=100)[98] if len(unrank) >= 2 else unrank[0]
    needed = sum((n + 1) ** 2 for n in tracer.max_query.values())
    verify_names = {name for name, _ in tracer.stats if name.startswith("verify.")}
    verify_self = sum(tracer.self_s(name) for name in verify_names)
    return {
        "core.Partition.calls": tracer.calls("core.Partition"),
        "core.Partition.calls_per_item": _ratio(tracer.calls("core.Partition"), items),
        "core.Partition.self_s": tracer.self_s("core.Partition"),
        "core.parity_split.calls": tracer.calls("core.parity_split"),
        "core.parity_split.self_s": tracer.self_s("core.parity_split"),
        "families.enumerate_family.items": count["enumerated"],
        "families.enumerate_family.self_s": tracer.self_s("families.enumerate_family"),
        "families.in_family.calls": tracer.calls("families.in_family"),
        "families.in_family.self_s": tracer.self_s("families.in_family"),
        "families.FamilySampler.builds": tracer.calls("families.FamilySampler.build"),
        "families.FamilySampler.build_s": tracer.self_s("families.FamilySampler.build"),
        "families.FamilySampler.table_cells": count["sampler.table_cells"],
        "families.unrank.calls": tracer.calls("families.unrank"),
        "families.unrank.self_s": tracer.self_s("families.unrank"),
        "families.unrank.p50_us": statistics.median(unrank) * 1e6,
        "families.unrank.p99_us": p99 * 1e6,
        "families.CountTable.build.calls": tracer.calls("families.CountTable.build"),
        "families.CountTable.build.self_s": tracer.self_s("families.CountTable.build"),
        "families.CountTable.useful_ratio": _ratio(needed, count["table.cells_built"]),
        "series.series_mul.calls": tracer.calls("series.series_mul"),
        "series.series_mul.self_s": tracer.self_s("series.series_mul"),
        "series.series_invert.self_s": tracer.self_s("series.series_invert"),
        "series.euler_inverse_even.self_s": tracer.self_s("series.euler_inverse_even"),
        "series.mul_operand_density": _ratio(count["mul.nonzero"], count["mul.operand_terms"]),
        "series.invert_operand_density": _ratio(count["invert.nonzero"], count["invert.operand_terms"]),
        "casemap.source_classify_per_member": _ratio(tracer.calls("casemap.source_case_matches"), sources),
        "casemap.image_classify_per_member": _ratio(tracer.calls("casemap.image_case_matches"), images),
        "casemap.source_case_matches.self_s": tracer.self_s("casemap.source_case_matches"),
        "casemap.image_case_matches.self_s": tracer.self_s("casemap.image_case_matches"),
        "casemap.forward.calls": tracer.calls("casemap.forward"),
        "casemap.forward.self_s": tracer.self_s("casemap.forward"),
        "casemap.backward.calls": tracer.calls("casemap.backward"),
        "casemap.backward.self_s": tracer.self_s("casemap.backward"),
        "verify.self_s": verify_self,
        "verify.checks": count["verify.checks"],
        "verify.skipped": count["verify.skipped"],
        "verify.failures": count["verify.failures"],
        "cli.run.self_s": tracer.self_s("cli.run"),
    }
