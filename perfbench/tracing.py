"""Spans around the program's layer boundaries, recorded from outside it.

`Tracer.install` replaces each traced function with a wrapper everywhere
the program looks it up: in every `infoineq` module that bound the
function by name, and on the class for methods.  A wrapper records one
span (name, start, end, parent) per call, plus a few per-call facts
(LP shape and status, proof found, interval refinement needed).  Spans
stay in memory; `summarize` condenses one process's spans into totals,
`merge` adds the totals of several processes, and `layer_metrics` turns
them into the per-layer metrics.

Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (span name, module, attribute); a dotted attribute is a class method
TRACED = [
    ("simplex.solve_lp", "simplex", "solve_lp"),
    ("shannon.prove", "shannon", "prove"),
    ("shannon.elemental", "shannon", "elemental"),
    ("shannon.classify_tight", "shannon", "classify_tight"),
    ("shannon.joint_slack", "shannon", "joint_slack"),
    ("distributions.entropic_vector", "distributions", "Distribution.entropic_vector"),
    ("core.eval", "core", "LinExpr.eval"),
    ("core.sign", "core", "LogLinValue.sign"),
    ("refuter.violation", "refuter", "violation"),
    ("refuter.refute", "refuter", "refute"),
    ("reductions.prepare_antecedents", "reductions", "prepare_antecedents"),
    ("reductions.tight_reduction", "reductions", "tight_reduction"),
    ("reductions.max_to_linear", "reductions", "max_to_linear"),
    ("ci.ci_prove", "ci", "ci_prove"),
    ("cli.decide_clause", "cli", "decide_clause"),
    ("cli.emit", "cli", "emit"),
    ("parser.parse_constraint", "parser", "parse_constraint"),
    ("apps.corpus", "apps", "corpus"),
]
ENUMERATE = "distributions.enumerate"
INPUT = "input"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, facts]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.refinements = 0
        self.last_yielded = None
        self.stream_profiles: list[set] = []
        self.stream_of_last = -1

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, facts=None) -> None:
        span = self.spans[idx]
        span[2] = perf()
        span[4] = facts
        self.stack.pop()

    def wrap(self, name: str, fn, facts=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, facts(args, result) if facts else None)
            return result

        return traced

    def wrap_stream(self, fn):
        """Spans around each step of a candidate generator; each stream
        keeps the set of distinct profiles built from its candidates."""
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.stream_profiles.append(set())
            stream = len(tracer.stream_profiles) - 1
            while True:
                idx = tracer.open(ENUMERATE)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(idx, 0)
                    return
                tracer.close(idx, 1)
                tracer.last_yielded = item
                tracer.stream_of_last = stream
                yield item

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {name[len("infoineq."):]: mod for name, mod in list(sys.modules.items())
                if name.startswith("infoineq.") and mod is not None}
        facts = {
            "simplex.solve_lp": lambda a, r: (len(a[0]), len(a[2]), r.status),
            "shannon.prove": lambda a, r: r is not None,
            "shannon.joint_slack": lambda a, r: r is not None,
        }
        for name, modname, attr in TRACED:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, meth)
                if name == "core.sign":
                    wrapped = self._wrap_sign(orig)
                elif name == "distributions.entropic_vector":
                    wrapped = self._wrap_entropic(orig)
                else:
                    wrapped = self.wrap(name, orig)
                setattr(cls, meth, wrapped)
                continue
            self._replace(mods, getattr(owner, attr), self.wrap(name, getattr(owner, attr),
                                                                 facts.get(name)))
        dist = mods["distributions"]
        self._replace(mods, dist.enumerate_distributions,
                      self.wrap_stream(dist.enumerate_distributions))
        core = mods["core"]
        refine = core._interval_log_sum

        def counted_refine(*args):
            self.refinements += 1
            return refine(*args)

        core._interval_log_sum = counted_refine

    @staticmethod
    def _replace(mods: dict, orig, wrapped) -> None:
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def _wrap_sign(self, orig):
        tracer = self

        def sign(value):
            idx = tracer.open("core.sign")
            before = tracer.refinements
            try:
                result = orig(value)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, tracer.refinements > before)
            return result

        return sign

    def _wrap_entropic(self, orig):
        tracer = self

        def entropic_vector(dist):
            idx = tracer.open("distributions.entropic_vector")
            try:
                h = orig(dist)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx)
            if dist is tracer.last_yielded:
                key = tuple(tuple(sorted(q for q, _ in v.terms)) for v in h.values)
                tracer.stream_profiles[tracer.stream_of_last].add(key)
            return h

        return entropic_vector


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def percentile(values: list, q: float) -> float:
    """Linear-interpolated quantile q in [0, 1]; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def summarize(tracer: Tracer) -> dict:
    """Mergeable per-process totals: calls, self and total time per span
    name, and the counts behind the ratios."""
    spans = tracer.spans
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        # total time counts only the outermost span of a recursive name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total_s[name] += end - start

    def facts(name):
        return [s[4] for s in spans if s[0] == name]

    lp = facts("simplex.solve_lp")
    return {
        "calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
        "lp_infeasible": sum(1 for f in lp if f[2] == "infeasible"),
        "lp_rows_max": max((f[0] for f in lp), default=0),
        "lp_cols_max": max((f[1] for f in lp), default=0),
        "proved": sum(1 for f in facts("shannon.prove") if f),
        "slack_found": sum(1 for f in facts("shannon.joint_slack") if f),
        "sign_refined": sum(1 for f in facts("core.sign") if f),
        "candidates": sum(1 for f in facts(ENUMERATE) if f),
        "profiles": sum(len(p) for p in tracer.stream_profiles),
        "top_s": sum(s[2] - s[1] for s in spans if s[3] < 0),
    }


def merge(parts: list[dict]) -> dict:
    out: dict = {"calls": defaultdict(int), "self_s": defaultdict(float),
                 "total_s": defaultdict(float)}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                for name, v in value.items():
                    out[key][name] += v
            elif key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(raw: dict, hit_depths: list[int]) -> dict:
    """The per-layer metrics of a workload from its merged totals;
    `hit_depths` holds, per refuted input, the candidates checked up to
    the hit."""
    calls, self_s, total_s = raw["calls"], raw["self_s"], raw["total_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "simplex.solve_lp.calls": calls["simplex.solve_lp"],
        "simplex.solve_lp.self_s": self_s["simplex.solve_lp"],
        "simplex.solve_lp.infeasible_ratio": ratio(raw["lp_infeasible"],
                                                   calls["simplex.solve_lp"]),
        "simplex.solve_lp.rows_max": raw["lp_rows_max"],
        "simplex.solve_lp.cols_max": raw["lp_cols_max"],
        "shannon.prove.calls": calls["shannon.prove"],
        "shannon.prove.self_s": self_s["shannon.prove"],
        "shannon.prove.proved_ratio": ratio(raw["proved"], calls["shannon.prove"]),
        "shannon.elemental.calls": calls["shannon.elemental"],
        "shannon.elemental.self_s": self_s["shannon.elemental"],
        "shannon.classify_tight.calls": calls["shannon.classify_tight"],
        "shannon.classify_tight.total_s": total_s["shannon.classify_tight"],
        "shannon.joint_slack.calls": calls["shannon.joint_slack"],
        "shannon.joint_slack.total_s": total_s["shannon.joint_slack"],
        "shannon.joint_slack.found_ratio": ratio(raw["slack_found"],
                                                 calls["shannon.joint_slack"]),
        "distributions.enumerate.candidates": raw["candidates"],
        "distributions.enumerate.self_s": self_s[ENUMERATE],
        "distributions.entropic_vector.calls": calls["distributions.entropic_vector"],
        "distributions.entropic_vector.self_s": self_s["distributions.entropic_vector"],
        "distributions.distinct_profile_ratio": ratio(raw["profiles"], raw["candidates"]),
        "core.eval.calls": calls["core.eval"],
        "core.eval.self_s": self_s["core.eval"],
        "core.sign.calls": calls["core.sign"],
        "core.sign.self_s": self_s["core.sign"],
        "core.sign.multi_prime_ratio": ratio(raw["sign_refined"], calls["core.sign"]),
        "refuter.violation.calls": calls["refuter.violation"],
        "refuter.violation.self_s": self_s["refuter.violation"],
        "refuter.refute.calls": calls["refuter.refute"],
        "refuter.refute.total_s": total_s["refuter.refute"],
        "refuter.hit_depth_p50": percentile(hit_depths, 0.5),
        "refuter.hit_depth_p90": percentile(hit_depths, 0.9),
        "reductions.prepare_antecedents.total_s": total_s["reductions.prepare_antecedents"],
        "reductions.tight_reduction.calls": calls["reductions.tight_reduction"],
        "reductions.tight_reduction.total_s": total_s["reductions.tight_reduction"],
        "reductions.max_to_linear.calls": calls["reductions.max_to_linear"],
        "reductions.max_to_linear.total_s": total_s["reductions.max_to_linear"],
        "ci.ci_prove.calls": calls["ci.ci_prove"],
        "ci.ci_prove.total_s": total_s["ci.ci_prove"],
        "cli.decide_clause.calls": calls["cli.decide_clause"],
        "cli.decide_clause.total_s": total_s["cli.decide_clause"],
        "cli.emit.self_s": self_s["cli.emit"],
        "parser.parse_constraint.calls": calls["parser.parse_constraint"],
        "parser.parse_constraint.self_s": self_s["parser.parse_constraint"],
        "apps.corpus.self_s": self_s["apps.corpus"],
    }
