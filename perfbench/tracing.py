"""Outside-in tracing: spans around calls into each module's public functions.

Nothing under ``src/`` is edited.  ``install`` replaces each traced function
in *every* package module that binds it, so names imported with
``from .x import f`` (``cli.poisson_pmf``, ``cli.tv_distance``,
``pair_models.tv_distance``, ``multivariate.poisson_pmf``) are traced too, and
two class attributes (``Pmf.__post_init__``, ``RecordWriter.write``).

A span's self time is its duration minus the time of the spans it encloses.

Known gap: ``process-matching`` builds its bound through the private
``bounds._report``, which is not traced, so that bound's (tiny) cost lands in
``cli.record`` self time.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

LAYERS = ("cli", "exact_laws", "stein_core", "bounds", "multivariate", "pair_models")


class SpanStats:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the counts (not the patches); called before each traced pass."""
        self.spans: dict[str, SpanStats] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.seen_lams: set[float] = set()
        self.repeat_lams = 0

    def wrap(self, fn, layer: str, classify):
        """``classify(args, kwargs)`` returns (span name, work units)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, work = classify(args, kwargs)
            child = [0.0]
            tracer._stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                dur = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                st = tracer.spans.get(name)
                if st is None:
                    st = tracer.spans[name] = SpanStats()
                st.calls += 1
                st.self_s += dur - child[0]
                st.work += work

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, modules, fn, layer: str, classify) -> int:
        """Replace ``fn`` wherever a module binds it; returns the binding count."""
        traced = self.wrap(fn, layer, classify)
        hits = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, traced)
                    hits += 1
        return hits

    def patch_method(self, cls, attr: str, layer: str, classify) -> None:
        self._set(cls, attr, self.wrap(getattr(cls, attr), layer, classify))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _const(name: str):
    return lambda args, kwargs: (name, 0)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the loaded ``steinpoisson`` package."""
    from steinpoisson import bounds, cli, exact_laws, multivariate, pair_models, stein_core

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "steinpoisson" or name.startswith("steinpoisson."))]
    laws = exact_laws

    def occupancy_kind(args, kwargs):
        spec = _first(args, kwargs, "spec")
        if spec.statistic != "empty":
            return "exact_laws.dp", 0
        n, k = spec.n_boxes, spec.k_balls
        digits = k * math.log10(n) if n > 1 else 0.0
        rational = n <= laws.EMPTY_EXACT_BOX_CAP and digits <= laws.EMPTY_EXACT_DIGIT_CAP
        return ("exact_laws.empty_rational" if rational else "exact_laws.empty_certified"), 0

    def matching_kind(args, kwargs):
        spec = _first(args, kwargs, "spec")
        return ("exact_laws.rencontres" if spec.is_plain else "exact_laws.multiset_enum"), 0

    def poisson_kind(args, kwargs):
        lam = _first(args, kwargs, "params").lam
        if lam in tracer.seen_lams:
            tracer.repeat_lams += 1
        tracer.seen_lams.add(lam)
        return "stein_core.poisson_pmf", 0

    def verify_kind(args, kwargs):
        model = _first(args, kwargs, "model")
        trials = kwargs.get("trials", args[1] if len(args) > 1 else None)
        if trials is None:
            return "pair_models.exact_kernel", 0
        return f"pair_models.mc_verify.{model.problem}", int(trials)

    def mc_tv_kind(args, kwargs):
        samples = kwargs.get("samples", args[2] if len(args) > 2 else 0)
        return "pair_models.mc_tv", int(samples)

    plan = [
        (laws.occupancy_pmf, "exact_laws", occupancy_kind),
        (laws.coloring_pmf, "exact_laws", _const("exact_laws.dp")),
        (laws.matching_pmf, "exact_laws", matching_kind),
        (laws.poisson_binomial_pmf, "exact_laws", _const("exact_laws.poisson_binomial")),
        (stein_core.poisson_pmf, "stein_core", poisson_kind),
        (stein_core.tv_distance, "stein_core", _const("stein_core.tv_distance")),
        (multivariate.matching_config_law, "multivariate", _const("multivariate.config")),
        (multivariate.product_poisson_config_law, "multivariate", _const("multivariate.config")),
        (multivariate.process_tv, "multivariate", _const("multivariate.config")),
        (multivariate.joint_fixed_point_succession_pmf, "multivariate", _const("multivariate.joint")),
        (multivariate.product_poisson_joint, "multivariate", _const("multivariate.joint")),
        (multivariate.joint_tv, "multivariate", _const("multivariate.joint")),
        (multivariate.bound_fixed_point_succession, "bounds", _const("bounds")),
        (pair_models.verify_step_probs, "pair_models", verify_kind),
        (pair_models.verify_exchangeability, "pair_models", _const("pair_models.exact_kernel")),
        (pair_models.mc_tv_estimate, "pair_models", mc_tv_kind),
        (cli.build_grid, "cli", _const("cli.grid")),
        (cli.feasibility_error, "cli", _const("cli.grid")),
        (cli.compute_record, "cli", _const("cli.record")),
        (cli.compute_mc_record, "cli", _const("cli.record")),
    ]
    plan += [(fn, "bounds", _const("bounds"))
             for name, fn in sorted(vars(bounds).items()) if name.startswith("bound_") and callable(fn)]
    for fn, layer, classify in plan:
        if tracer.patch_function(modules, fn, layer, classify) == 0:
            raise RuntimeError(f"traced function {fn.__qualname__} is bound nowhere")
    tracer.patch_method(stein_core.Pmf, "__post_init__", "stein_core", _const("stein_core.pmf_check"))
    tracer.patch_method(cli.RecordWriter, "write", "cli", _const("cli.write"))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

#: metric -> span whose self time it reports
SELF_SECONDS = {
    "exact_laws.dp_s": "exact_laws.dp",
    "exact_laws.empty_rational_s": "exact_laws.empty_rational",
    "exact_laws.empty_certified_s": "exact_laws.empty_certified",
    "exact_laws.rencontres_s": "exact_laws.rencontres",
    "exact_laws.multiset_enum_s": "exact_laws.multiset_enum",
    "exact_laws.poisson_binomial_s": "exact_laws.poisson_binomial",
    "multivariate.config_s": "multivariate.config",
    "multivariate.joint_s": "multivariate.joint",
    "stein_core.poisson_pmf_s": "stein_core.poisson_pmf",
    "stein_core.tv_distance_s": "stein_core.tv_distance",
    "stein_core.pmf_check_s": "stein_core.pmf_check",
    "bounds.s": "bounds",
    "cli.grid_s": "cli.grid",
    "cli.record_self_s": "cli.record",
    "cli.write_s": "cli.write",
    "pair_models.exact_kernel_s": "pair_models.exact_kernel",
    "pair_models.mc_tv_s": "pair_models.mc_tv",
}
#: metric -> span whose call count it reports
CALLS = {
    "exact_laws.dp_calls": "exact_laws.dp",
    "bounds.calls": "bounds",
    "cli.records": "cli.record",
}
MC_FAMILIES = ("matching", "poisson_binomial", "birthday_pairs", "birthday_triples", "coupon")

#: every per-layer metric with its unit, in report order
PER_LAYER = (
    [(name, "s") for name in SELF_SECONDS]
    + [(name, "count") for name in CALLS]
    + [("stein_core.poisson_pmf_repeat_share", "ratio")]
    + [(f"pair_models.mc_samples_per_s.{fam}", "1/s") for fam in MC_FAMILIES]
    + [("mc_samples_per_s", "1/s")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace_overhead_frac", "ratio")]
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the pass-level ones excepted:
    ``mc_samples_per_s`` and ``trace_overhead_frac`` need untraced passes)."""
    empty = SpanStats()
    span = lambda name: tracer.spans.get(name, empty)  # noqa: E731
    out: dict[str, float] = {m: span(s).self_s for m, s in SELF_SECONDS.items()}
    out.update({m: span(s).calls for m, s in CALLS.items()})
    pmf_calls = span("stein_core.poisson_pmf").calls
    out["stein_core.poisson_pmf_repeat_share"] = tracer.repeat_lams / pmf_calls if pmf_calls else 0.0
    for fam in MC_FAMILIES:
        st = span(f"pair_models.mc_verify.{fam}")
        out[f"pair_models.mc_samples_per_s.{fam}"] = st.work / st.self_s if st.self_s else 0.0
    out.update({f"{layer}.errors": count for layer, count in tracer.errors.items()})
    return out


def fired(tracer: Tracer) -> set[str]:
    return {name for name, st in tracer.spans.items() if st.calls}
