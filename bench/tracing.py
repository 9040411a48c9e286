"""Per-layer tracing from outside the program.

Tracer.install() replaces the public entry points of discoh's modules with
wrappers that record a span (name, start, end, parent) around each call,
in every discoh module that holds a reference to the function, so a call
made through an imported name is seen too.  Spans stay in memory until the
run ends.  The objective and unitaries_from_params are called hundreds of
thousands of times per round, so they are counted and timed in aggregate
instead of getting a span each.

Wrappers hand arguments and results through untouched, so a traced run
computes exactly what an untraced one does.
"""

import hashlib
import sys
from contextlib import contextmanager
from time import perf_counter

SUITES = (
    "theorem5",
    "analytic-vs-numeric",
    "two-side-sandwich",
    "corollary2",
    "monogamy",
    "eq64",
    "classical-zero",
    "corollary1",
)

# span name -> (module, attribute) of each function it wraps
SPANNED = {
    "states.load_state": [("states", "load_state")],
    "states.generate": [
        ("states", name)
        for name in ("random_pure", "random_mixed", "random_classical", "make_werner", "make_bell")
    ],
    "linalg.hermitian_eigen": [("linalg", "hermitian_eigen")],
    "discord.closed_form": [("discord", "discord_ab_analytic"), ("discord", "discord_ba_analytic")],
    "nonlocality.closed_form": [
        ("nonlocality", name)
        for name in ("v_measures_analytic", "chsh_violation", "correlation_spectrum")
    ],
    "entanglement.concurrence": [
        ("entanglement", "concurrence_pure"),
        ("entanglement", "concurrence_mixed_2q"),
    ],
    "entanglement.monogamy": [("entanglement", "monogamy_check")],
    "entanglement.corollary1": [("entanglement", "corollary1_check")],
    "coherence.contributions": [("coherence", "contributions")],
    "verify.campaign": [
        ("verify", name)
        for name in (
            "class3_extrema_campaign",
            "discord_closed_form_campaign",
            "two_side_sandwich_campaign",
            "pure_state_discord_campaign",
            "monogamy_campaign",
            "class3_sum_rule_campaign",
            "classical_zero_campaign",
            "mixed_state_bound_campaign",
        )
    ],
}

# Spans an analyze call does not count as its own overhead.
ANALYZE_WORK = (
    "states.load_state",
    "coherence.search",
    "discord.closed_form",
    "nonlocality.closed_form",
    "entanglement.concurrence",
    "entanglement.monogamy",
)

PER_LAYER = {
    "simplex.runs": "count",
    "simplex.iterations": "count",
    "simplex.evaluations": "count",
    "simplex.bookkeeping_s": "s",
    "simplex.rows_per_call": "rows",
    "simplex.capped_rows": "count",
    "coherence.searches": "count",
    "coherence.search_s": "s",
    "coherence.objective_calls": "count",
    "coherence.objective_rows": "count",
    "coherence.objective_s": "s",
    "coherence.objective_us_per_row": "us",
    "coherence.unitaries_rows": "count",
    "coherence.unitaries_s": "s",
    "coherence.restart_hit_ratio": "ratio",
    "coherence.contributions_calls": "count",
    "coherence.contributions_s": "s",
    "cli.searches_per_analyze": "count",
    "cli.distinct_searches_per_analyze": "count",
    "cli.analyze_overhead_s": "s",
    "states.validations": "count",
    "states.validate_s": "s",
    "states.generate_s": "s",
    "states.load_state_s": "s",
    "linalg.hermitian_eigen_calls": "count",
    "linalg.hermitian_eigen_s": "s",
    "discord.closed_form_s": "s",
    "nonlocality.closed_form_s": "s",
    "entanglement.concurrence_s": "s",
    "entanglement.corollary1_s": "s",
    **{f"verify.campaign_s.{suite}": "s" for suite in SUITES},
}


def _discoh_modules():
    return [mod for name, mod in sys.modules.items() if name == "discoh" or name.startswith("discoh.")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info dict]
        self._open = []
        self._patches = []
        self.objective = {"calls": 0, "rows": 0, "s": 0.0}
        self.unitaries = {"calls": 0, "rows": 0, "s": 0.0}

    @contextmanager
    def span(self, name, **info):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, info]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield info
        finally:
            record[2] = perf_counter()
            self._open.pop()

    # -- installing the wrappers -------------------------------------------

    def _replace(self, original, wrapper):
        for mod in _discoh_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _install_cli(self, cli):
        # one span per command, named after it: cli.analyze, cli.verify, ...
        main = cli.main

        def wrapper(argv=None):
            with self.span(f"cli.{argv[0] if argv else 'main'}"):
                return main(argv)

        self._replace(main, wrapper)

    def install(self):
        import discoh.cli as cli
        import discoh.coherence as coherence
        import discoh.states as states
        import discoh.verify as verify

        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items() if name.startswith("discoh.")}
        for name, targets in SPANNED.items():
            for mod, attr in targets:
                original = getattr(modules[mod], attr)
                self._replace(original, self._spanned(name, original))
        self._install_campaigns(verify)
        self._install_cli(cli)
        self._install_search(coherence)
        self._install_validation(states)
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _install_campaigns(self, verify):
        # the campaign span learns its suite from the call to _run
        original_run = verify._run

        def run(suite, *args):
            if self._open and self.spans[self._open[-1]][0] == "verify.campaign":
                self.spans[self._open[-1]][4]["suite"] = suite
            return original_run(suite, *args)

        self._replace(original_run, run)

    def _install_search(self, coherence):
        for sense, original in (
            ("min", coherence.minimize_over_bases),
            ("max", coherence.maximize_over_bases),
        ):
            self._replace(original, self._search_wrapper(sense, original))
        self._replace(coherence.minimize_batch, self._simplex_wrapper(coherence.minimize_batch))
        unitaries = coherence.unitaries_from_params
        counts = self.unitaries

        def unitaries_wrapper(theta, d):
            start = perf_counter()
            out = unitaries(theta, d)
            counts["s"] += perf_counter() - start
            counts["calls"] += 1
            counts["rows"] += out.shape[0]
            return out

        self._replace(unitaries, unitaries_wrapper)

    def _search_wrapper(self, sense, fn):
        def wrapper(rho, *args, **kwargs):
            # the key tells repeated searches apart: same state, objective, sense and settings
            key = [hashlib.sha1(rho.mat.tobytes()).hexdigest(), sense, repr(args), repr(kwargs)]
            with self.span("coherence.search", key=key):
                return fn(rho, *args, **kwargs)

        return wrapper

    def _simplex_wrapper(self, minimize_batch):
        counts = self.objective

        def wrapper(fn, x0, step=0.5, tol=1e-9, max_iter=2000):
            spent = [0.0]

            def objective(theta):
                start = perf_counter()
                out = fn(theta)
                spent[0] += perf_counter() - start
                counts["calls"] += 1
                counts["rows"] += len(out)
                return out

            with self.span("simplex.minimize_batch") as info:
                res = minimize_batch(objective, x0, step, tol, max_iter)
            counts["s"] += spent[0]
            capped = 0 if res.iterations < max_iter else int((~res.converged).sum())
            info.update(
                objective_s=spent[0],
                iterations=res.iterations,
                evaluations=res.evaluations,
                rows=len(res.value),
                capped=capped,
                hits=int((res.value <= res.value.min() + tol).sum()),
            )
            return res

        return wrapper

    def _install_validation(self, states):
        cls = states.DensityMatrix
        original = cls.__init__
        tracer = self

        def init(self, *args, **kwargs):
            with tracer.span("states.validate"):
                original(self, *args, **kwargs)

        cls.__init__ = init
        self._patches.append((cls, "__init__", original))

    # -- reading the spans back ------------------------------------------

    def _descendants(self, index):
        """Indices of the spans opened inside span index: a run right after it."""
        end = self.spans[index][2]
        last = index + 1
        while last < len(self.spans) and self.spans[last][1] < end:
            last += 1
        return range(index + 1, last)

    def _covered(self, names, within=None):
        """Time inside spans of the given names, not counting a span nested in another of them."""
        names = set(names)
        total = 0.0
        indices = range(len(self.spans)) if within is None else self._descendants(within)
        for index in indices:
            name, start, end, parent, _ = self.spans[index]
            if name in names and not self._has_ancestor(parent, names):
                total += end - start
        return total

    def _has_ancestor(self, index, names):
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False

    def _named(self, name):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] == name]

    def metrics(self):
        """Every PER_LAYER metric; a ratio with nothing to divide reads 0."""
        simplex = [s[4] for _, s in self._named("simplex.minimize_batch")]
        simplex_s = sum(s[2] - s[1] for _, s in self._named("simplex.minimize_batch"))
        obj = self.objective
        rows = sum(info["rows"] for info in simplex)
        analyze = self._named("cli.analyze")
        searches_in, distinct_in, overhead = 0, 0, 0.0
        for index, (_, start, end, _, _) in analyze:
            inner = [self.spans[i] for i in self._descendants(index)]
            keys = [repr(s[4]["key"]) for s in inner if s[0] == "coherence.search"]
            searches_in += len(keys)
            distinct_in += len(set(keys))
            overhead += (end - start) - self._covered(ANALYZE_WORK, within=index)
        n_analyze = max(len(analyze), 1)
        out = {
            "simplex.runs": len(simplex),
            "simplex.iterations": sum(info["iterations"] for info in simplex),
            "simplex.evaluations": sum(info["evaluations"] for info in simplex),
            "simplex.bookkeeping_s": simplex_s - sum(info["objective_s"] for info in simplex),
            "simplex.rows_per_call": obj["rows"] / obj["calls"] if obj["calls"] else 0,
            "simplex.capped_rows": sum(info["capped"] for info in simplex),
            "coherence.searches": len(self._named("coherence.search")),
            "coherence.search_s": self._covered(["coherence.search"]),
            "coherence.objective_calls": obj["calls"],
            "coherence.objective_rows": obj["rows"],
            "coherence.objective_s": obj["s"],
            "coherence.objective_us_per_row": 1e6 * obj["s"] / obj["rows"] if obj["rows"] else 0,
            "coherence.unitaries_rows": self.unitaries["rows"],
            "coherence.unitaries_s": self.unitaries["s"],
            "coherence.restart_hit_ratio": sum(i["hits"] for i in simplex) / rows if rows else 0,
            "coherence.contributions_calls": len(self._named("coherence.contributions")),
            "coherence.contributions_s": self._covered(["coherence.contributions"]),
            "cli.searches_per_analyze": searches_in / n_analyze,
            "cli.distinct_searches_per_analyze": distinct_in / n_analyze,
            "cli.analyze_overhead_s": overhead / n_analyze,
            "states.validations": len(self._named("states.validate")),
            "states.validate_s": self._covered(["states.validate"]),
            "states.generate_s": self._covered(["states.generate"]),
            "states.load_state_s": self._covered(["states.load_state"]),
            "linalg.hermitian_eigen_calls": len(self._named("linalg.hermitian_eigen")),
            "linalg.hermitian_eigen_s": self._covered(["linalg.hermitian_eigen"]),
            "discord.closed_form_s": self._covered(["discord.closed_form"]),
            "nonlocality.closed_form_s": self._covered(["nonlocality.closed_form"]),
            "entanglement.concurrence_s": self._covered(["entanglement.concurrence"]),
            "entanglement.corollary1_s": self._covered(["entanglement.corollary1"]),
        }
        for suite in SUITES:
            out[f"verify.campaign_s.{suite}"] = 0
        for _, (_, start, end, _, info) in self._named("verify.campaign"):
            out[f"verify.campaign_s.{info['suite']}"] += end - start
        assert set(out) == set(PER_LAYER)
        return out

    def dump(self):
        """Spans as plain lists, for the trace file."""
        return {
            "spans": self.spans,
            "objective": self.objective,
            "unitaries": self.unitaries,
        }
