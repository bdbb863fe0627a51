"""The four benchmark workloads: fixed `stein-poisson` command lists.

Each command is a template; ``{seed}`` is replaced by the workload seed, which
drives the random Poisson-binomial grid and every Monte Carlo ``--seed``.
A workload runs its commands one after another in one fresh process (a closed
loop with one client).  ``spans`` lists the traced spans that must fire on
the workload; a traced run that misses one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracing import MC_FAMILIES

STEIN_CORE = {"stein_core.poisson_pmf", "stein_core.tv_distance", "stein_core.pmf_check"}
CLI_SWEEP = {"cli.grid", "cli.record", "cli.write"}


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[str, ...]
    spans: frozenset[str]


WORKLOADS = {
    "occupancy-dp": Workload(
        why="allocation-DP laws (birthday pairs, triples, pair count, coloring) at the largest "
            "pinned sizes; no closed forms, no Monte Carlo",
        commands=(
            "sweep birthday-pairs --n 1000 --theta 0.5,1.5",
            "sweep birthday-pairs --n 400 --theta 1",
            "sweep birthday-triples --n 512 --theta 0.5",
            "sweep birthday-triples --n 125,216 --theta 1",
            "sweep birthday-pair-count --n 400 --theta 0.5,1.5",
            "sweep coloring --n 30,40 --k 3 --c 10,20",
        ),
        spans=frozenset({"exact_laws.dp", "bounds"} | STEIN_CORE | CLI_SWEEP),
    ),
    "closed-forms": Workload(
        why="large non-DP exact laws: rencontres, exact-rational and certified-mpmath empty "
            "boxes, multiset enumeration, configuration and joint laws",
        commands=(
            "sweep matching --n 450..500",
            "sweep coupon --n 200,300 --theta=-0.5,0.5",
            "sweep coupon --n 1000,5000,20000 --theta 0.5,1.5",
            "sweep generalized-matching --l 3,3,3 --l 2,2,2,2,2",
            "sweep process-matching --n 12..14",
            "sweep joint-matching-succession --n 8,9",
        ),
        spans=frozenset({
            "exact_laws.empty_rational", "exact_laws.empty_certified", "exact_laws.rencontres",
            "exact_laws.multiset_enum", "multivariate.config", "multivariate.joint", "bounds",
        } | STEIN_CORE | CLI_SWEEP),
    ),
    "many-small": Workload(
        why="every exact family at small sizes plus a seeded random Poisson-binomial grid, so "
            "per-record fixed cost dominates",
        commands=(
            "sweep birthday-pairs --n 10..40 --theta 0.5,1,1.5,2",
            "sweep birthday-triples --n 8..40 --theta 0.5,1",
            "sweep birthday-pair-count --n 10..40 --theta 0.5,1,1.5",
            "sweep coloring --n 6..12 --k 2,3 --c 2..6",
            "sweep coupon --n 10..60 --theta=-0.5,0,0.5,1",
            "sweep coupon --n 10..60 --theta 0,1 --bound coupling",
            "sweep coupon --n 10..60 --theta 0,1 --bound negative-association",
            "sweep matching --n 2..200",
            "sweep matching --n 2..60 --bound coupling",
            "sweep generalized-matching --l 2,2 --l 2,2,2 --l 3,3 --l 2,2,2,2 --l 1,2,3 --l 4,4",
            "sweep process-matching --n 2..8",
            "sweep joint-matching-succession --n 3..6",
            "sweep poisson-binomial --count 10000 --maxlen 12 --seed {seed}",
            "sweep poisson-binomial --count 2000 --maxlen 12 --seed {seed} --bound coupling",
        ),
        spans=frozenset({
            "exact_laws.dp", "exact_laws.empty_rational", "exact_laws.rencontres",
            "exact_laws.multiset_enum", "exact_laws.poisson_binomial", "multivariate.config",
            "multivariate.joint", "bounds",
        } | STEIN_CORE | CLI_SWEEP),
    ),
    "pair-verify": Workload(
        why="exchangeable-pair Monte Carlo sampler, exact kernel enumeration and mc-tv; the only "
            "workload in pair_models, no exact-law work",
        commands=(
            "verify-pair matching --n 100 --trials 100000 --seed {seed}",
            "verify-pair poisson-binomial --p uniform:2 --n 200 --trials 100000 --seed {seed}",
            "verify-pair birthday-pairs --n 365 --k 23 --trials 100000 --seed {seed}",
            "verify-pair birthday-triples --n 200 --k 30 --trials 100000 --seed {seed}",
            "verify-pair coupon --n 100 --k 500 --trials 100000 --seed {seed}",
            "verify-pair matching --n 6 --exact",
            "verify-pair birthday-pairs --n 5 --k 4 --exact",
            "verify-pair coupon --n 4 --k 5 --exact",
            "mc-tv matching --n 200 --trials 100000 --seed {seed}",
            "mc-tv birthday-pairs --n 2000 --k 60 --trials 50000 --seed {seed}",
        ),
        spans=frozenset(
            {f"pair_models.mc_verify.{f}" for f in MC_FAMILIES}
            | {"pair_models.exact_kernel", "pair_models.mc_tv", "bounds", "cli.record"}
            | STEIN_CORE
        ),
    ),
}
