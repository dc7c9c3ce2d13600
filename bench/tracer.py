"""Spans and counts around the calls into each skewseries layer.

Everything here is installed by the benchmark for a traced run and removed
again afterwards; nothing in ``src/`` knows about it.  Spans sit on layer
boundaries (name, start, end, parent span, request id) and are kept in
memory until the run ends.  Counts come from thin wrappers:

* instance-level overrides of ``mul``, ``add``, ``sigma`` and ``delta`` on
  every ``RingContext`` built through ``parse_ring_preset`` (as
  ``skewseries.rings`` and ``skewseries.cli`` see it);
* ``monomial_operator_apply`` rebound in both ``skewseries.skewpoly`` and
  ``skewseries.series``, because ``series`` imports it by name;
* ``k0.mat_mul`` rebound, and the scalar ``mul`` methods patched;
* ``SkewPoly.__mul__`` and ``TruncatedSeries.__mul__`` patched at class level.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

from skewseries import cli, exprparse, k0, rings, series, skewpoly

# Ring methods overridden on each context: primitives are counted, the
# enumeration steps behind the first ideal_power / is_unit / is_local call
# become "rings.setup" spans.
_RING_COUNTED = {"mul": "rings.mul", "add": "rings.add",
                 "sigma": "rings.sigma_delta", "delta": "rings.sigma_delta"}
_RING_SETUP = ("_ensure_ideal_powers", "_ensure_inv_table", "is_local")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, request id)
        self.self_time = Counter()
        self.total_time = Counter()
        self.counts = Counter()
        self.calls = Counter()
        self.request = None
        self._stack = []         # [span index, time covered by children]
        self._patches = []       # (owner, attribute, original)
        self._contexts = []      # long-lived, built before begin_pass
        self._request_contexts = []
        self._retired_memo = 0
        self._in_setup = False

    # -- spans -------------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that every call records one span called name."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent = stack[-1] if stack else None
                spans[frame[0]] = (name, start, end,
                                   parent[0] if parent else -1, self.request)
                self.calls[name] += 1
                self.total_time[name] += took
                self.self_time[name] += took - frame[1]
                if parent:
                    parent[1] += took
        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    # -- installing and removing wrappers ----------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        span = self.span
        for module in (rings, cli):
            self._patch(module, "parse_ring_preset",
                        self._ring_factory(module.parse_ring_preset))
        for module in (skewpoly, series):
            self._patch(module, "monomial_operator_apply",
                        self._mkl(module.monomial_operator_apply))
        self._patch(k0, "mat_mul", self._count("k0.mat_mul", k0.mat_mul))
        for cls in (k0.BaseScalars, k0.SeriesScalars):
            self._patch(cls, "mul", self._count("k0.scalar_mul", cls.mul))
        self._patch(skewpoly.SkewPoly, "__mul__",
                    span("skewpoly.mul", skewpoly.SkewPoly.__mul__))
        self._patch(skewpoly.SkewPoly, "__pow__",
                    span("skewpoly.pow", skewpoly.SkewPoly.__pow__))
        self._patch(series.TruncatedSeries, "__mul__",
                    span("series.mul", series.TruncatedSeries.__mul__))
        from_poly = series.TruncatedSeries.__dict__["from_poly"].__func__
        self._patch(series.TruncatedSeries, "from_poly",
                    classmethod(span("series.from_poly", from_poly)))
        self._patch(k0.SeriesScalars, "inv",
                    span("k0.series_inv", k0.SeriesScalars.inv))
        for cls in (k0.RankWitness, k0.StableIsoWitness):
            self._patch(cls, "verify", span("k0.verify", cls.verify))
        for module in (k0, cli):
            self._patch(module, "idempotent_rank",
                        span("k0.rank", module.idempotent_rank))
        for module in (exprparse, cli):
            self._patch(module, "parse_expression",
                        span("exprparse.parse", module.parse_expression))
            self._patch(module, "eval_expression",
                        span("exprparse.eval", module.eval_expression))
        self._patch(cli, "sigma_nilpotence_bound",
                    span("rings.nilbound", cli.sigma_nilpotence_bound))
        self._patch(cli, "run_property_suite",
                    self._suite(cli.run_property_suite))
        self._patch(cli, "main", span("cli.main", cli.main))

    def uninstall(self):
        """Remove every wrapper; returns False if any failed to come off."""
        self._retire(self._contexts + self._request_contexts)
        self._contexts, self._request_contexts = [], []
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original
                 for owner, attr, original in self._patches)
        self._patches = []
        return ok

    def _ring_factory(self, factory):
        def build(text):
            ctx = factory(text)
            self._attach(ctx)
            return ctx
        return build

    def _attach(self, ctx):
        for attr, key in _RING_COUNTED.items():
            setattr(ctx, attr, self._count(key, getattr(ctx, attr)))
        for attr in _RING_SETUP:
            setattr(ctx, attr, self._setup_span(ctx, attr))
        self._request_contexts.append(ctx)

    def _setup_span(self, ctx, attr):
        # Only the outermost setup step is a span, because is_local itself
        # triggers the ideal-power and unit-table enumerations on first use.
        # The override removes itself after its first call, so the cached
        # lookups later on take the plain method.
        fn = getattr(ctx, attr)
        traced = self.span("rings.setup", fn)

        def setup(*args):
            ctx.__dict__.pop(attr, None)
            if self._in_setup:
                return fn(*args)
            self._in_setup = True
            try:
                return traced(*args)
            finally:
                self._in_setup = False
        return setup

    def end_request(self):
        """Retire the contexts a request built (cli-cold builds one per
        command), so that the traced pass does not keep them alive."""
        self._retire(self._request_contexts)
        self._request_contexts = []

    def _retire(self, contexts):
        # record each context's memo size, then detach every override
        for ctx in contexts:
            self._retired_memo += len(ctx._mkl_cache)
            for attr in (*_RING_COUNTED, *_RING_SETUP):
                ctx.__dict__.pop(attr, None)

    def _mkl(self, fn):
        counts = self.counts

        def mkl(ctx, k, l, a):
            counts["skewpoly.mkl"] += 1
            if (k, l, a) in ctx._mkl_cache:
                counts["skewpoly.mkl_hit"] += 1
            if k >= ctx.radical_nilpotency:
                counts["skewpoly.mkl_dead"] += 1
            return fn(ctx, k, l, a)
        return mkl

    def _suite(self, fn):
        traced = self.span("suites.run", fn)

        def run(*args, **kwargs):
            report = traced(*args, **kwargs)
            self.counts["suites.checked"] += report.checked
            return report
        return run

    # -- results ------------------------------------------------------------

    def begin_pass(self):
        """Start counting afresh once long-lived contexts are set up; only
        the set-up time recorded so far is kept."""
        self._contexts += self._request_contexts
        self._request_contexts = []
        self.counts.clear()
        for table in (self.calls, self.total_time, self.self_time):
            for name in [n for n in table if n != "rings.setup"]:
                del table[name]

    def memo_entries(self):
        live = self._contexts + self._request_contexts
        return self._retired_memo + sum(len(c._mkl_cache) for c in live)

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c, total, own = self.counts, self.total_time, self.self_time
        mkl = c["skewpoly.mkl"]
        return {
            "rings.setup_s": (total["rings.setup"], "s"),
            "rings.mul_calls": (c["rings.mul"], "count"),
            "rings.add_calls": (c["rings.add"], "count"),
            "rings.sigma_delta_calls": (c["rings.sigma_delta"], "count"),
            "rings.nilbound_s": (total["rings.nilbound"], "s"),
            "skewpoly.mul_calls": (self.calls["skewpoly.mul"], "count"),
            "skewpoly.mul_self_s": (own["skewpoly.mul"], "s"),
            "skewpoly.pow_s": (total["skewpoly.pow"], "s"),
            "skewpoly.mkl_calls": (mkl, "count"),
            "skewpoly.mkl_hit_ratio": (c["skewpoly.mkl_hit"] / mkl if mkl else 0.0, "ratio"),
            "skewpoly.mkl_dead_ratio": (c["skewpoly.mkl_dead"] / mkl if mkl else 0.0, "ratio"),
            "skewpoly.mkl_memo_entries": (self.memo_entries(), "count"),
            "series.mul_calls": (self.calls["series.mul"], "count"),
            "series.mul_self_s": (own["series.mul"], "s"),
            "series.from_poly_s": (total["series.from_poly"], "s"),
            "k0.rank_calls": (self.calls["k0.rank"], "count"),
            "k0.rank_self_s": (own["k0.rank"], "s"),
            "k0.verify_s": (total["k0.verify"], "s"),
            "k0.mat_mul_calls": (c["k0.mat_mul"], "count"),
            "k0.scalar_mul_calls": (c["k0.scalar_mul"], "count"),
            "k0.series_inv_calls": (self.calls["k0.series_inv"], "count"),
            "exprparse.parse_s": (total["exprparse.parse"], "s"),
            "exprparse.eval_self_s": (own["exprparse.eval"], "s"),
            "suites.run_s": (total["suites.run"], "s"),
            "suites.checked": (c["suites.checked"], "count"),
            "cli.main_self_s": (own["cli.main"], "s"),
        }

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps([name, start, end, parent, request]) + "\n")
