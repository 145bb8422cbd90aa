"""Seeded candidate populations for the push-policy search.

Three sources feed a site's population, in order:

1. **Anchors** — the six §5 deployments themselves, materialized into
   :class:`~repro.optimizer.space.PushPolicy` points by asking each
   deployment's strategy for its actual :class:`PushPlan` against the
   variant's record database.  Anchors are never dropped by the
   population cap, which is what makes the oracle-gap guarantee hold
   by construction: the learned winner is selected from a pool that
   contains every hand-crafted deployment.
2. **Neighbors** — local mutations of each pushing anchor (drop/add a
   URL, swap adjacent pushes, truncate the tail, re-rank a URL to the
   front, perturb the interleaving offset or critical prefix), drawn
   from the site's per-resource trace table (URL, type, size of every
   authoritative record).
3. **Random restarts** — fresh policies sampled uniformly from the
   trace table, covering regions no anchor is near.

Everything is driven by one ``random.Random`` seeded from
``(site, seed)``, so a population is a pure function of its config —
re-running the optimizer regenerates the identical candidate list,
which in turn makes the whole search cache-addressable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..html.builder import BuiltSite, build_site
from ..html.resources import split_url
from ..html.spec import WebsiteSpec
from ..replay.recorddb import RecordDatabase
from ..replay.recorder import record_site
from ..strategies.critical import build_strategy_suite
from ..strategies.simple import NoPushStrategy
from .space import VARIANTS, PushPolicy


@dataclass(frozen=True)
class ResourceRow:
    """One row of the per-resource trace table: an authoritative,
    pushable record of the site."""

    url: str
    rtype: str
    size: int


@dataclass
class CandidateConfig:
    """Population shape; one instance drives every site of a run."""

    #: Cap on non-anchor candidates (anchors always survive).
    population: int = 14
    #: Local mutations generated per pushing anchor.
    neighbors_per_anchor: int = 2
    #: Fresh random policies sampled from the trace table.
    restarts: int = 4
    #: RNG seed; combined with the site name into the population seed.
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.population < 0:
            raise ConfigError(f"population must be >= 0, got {self.population}")


@dataclass(frozen=True)
class Candidate:
    """A named policy in a site's population."""

    name: str
    policy: PushPolicy


@dataclass
class CandidateSet:
    """A site's population plus the deployment context to evaluate it."""

    site: str
    spec: WebsiteSpec
    optimized_spec: WebsiteSpec
    candidates: List[Candidate] = field(default_factory=list)
    #: Anchor candidate names (the §5 deployments), in suite order.
    anchors: List[str] = field(default_factory=list)

    def spec_for(self, policy: PushPolicy) -> WebsiteSpec:
        return self.optimized_spec if policy.variant == "optimized" else self.spec


def resource_table(spec: WebsiteSpec, db: Optional[RecordDatabase] = None) -> List[ResourceRow]:
    """The per-resource trace table: every authoritative record.

    Derived from the record database (what a real deployment would
    mine from its access logs), not the spec: URL, resource type, and
    response size per record, excluding the base document, in recorded
    order.
    """
    if db is None:
        db = record_site(build_site(spec))
    allowed = {spec.primary_domain} | set(spec.coalesced_domains)
    main_path = "/"
    rows = []
    for record in db:
        domain, path = split_url(record.url)
        if domain not in allowed or path == main_path:
            continue
        rows.append(
            ResourceRow(url=record.url, rtype=record.rtype.value, size=record.size)
        )
    return rows


# ----------------------------------------------------------------------
# anchor materialization
# ----------------------------------------------------------------------
def _authority(spec: WebsiteSpec):
    allowed = {spec.primary_domain} | set(spec.coalesced_domains)
    return lambda url: split_url(url)[0] in allowed


def _materialize(deployment, built: BuiltSite, db: RecordDatabase) -> PushPolicy:
    """One §5 deployment as a point of the policy space."""
    variant = "optimized" if deployment.name.endswith("optimized") else "plain"
    if isinstance(deployment.strategy, NoPushStrategy):
        return PushPolicy(variant=variant)
    plan = deployment.strategy.plan(
        built.html_url, db, _authority(deployment.spec)
    )
    critical = list(plan.critical_urls)
    urls = critical + [url for url in plan.urls if url not in critical]
    return PushPolicy(
        variant=variant,
        urls=tuple(urls),
        critical_count=len(critical),
        interleave_offset=plan.interleave_offset,
    )


# ----------------------------------------------------------------------
# mutation moves
# ----------------------------------------------------------------------
def _mutate(
    policy: PushPolicy,
    rng: random.Random,
    universe: List[str],
    offsets: List[Optional[int]],
) -> PushPolicy:
    """One local move; always returns a valid policy."""
    urls = list(policy.urls)
    critical = policy.critical_count
    offset = policy.interleave_offset
    moves = ["offset", "critical"]
    if urls:
        moves += ["drop", "swap", "front", "trim"]
    absent = [url for url in universe if url not in set(urls)]
    if absent:
        moves.append("add")
    move = rng.choice(sorted(moves))
    if move == "drop":
        index = rng.randrange(len(urls))
        del urls[index]
        if index < critical:
            critical -= 1
    elif move == "add":
        url = rng.choice(absent)
        urls.insert(rng.randint(0, len(urls)), url)
    elif move == "swap" and len(urls) >= 2:
        index = rng.randrange(len(urls) - 1)
        urls[index], urls[index + 1] = urls[index + 1], urls[index]
    elif move == "front":
        index = rng.randrange(len(urls))
        urls.insert(0, urls.pop(index))
    elif move == "trim":
        urls = urls[: max(1, len(urls) // 2)]
    elif move == "offset":
        offset = rng.choice([o for o in offsets if o != offset] or offsets)
    elif move == "critical":
        critical = rng.randint(0, len(urls))
    critical = min(critical, len(urls))
    return PushPolicy(
        variant=policy.variant,
        urls=tuple(urls),
        critical_count=critical,
        interleave_offset=offset,
    )


def _random_restart(
    rng: random.Random,
    tables: Dict[str, List[ResourceRow]],
    offsets: Dict[str, List[Optional[int]]],
) -> PushPolicy:
    variant = rng.choice(sorted(VARIANTS))
    universe = [row.url for row in tables[variant]]
    count = rng.randint(0, len(universe))
    urls = rng.sample(universe, count)
    offset = rng.choice(offsets[variant])
    critical = rng.randint(0, count) if offset is not None else 0
    return PushPolicy(
        variant=variant,
        urls=tuple(urls),
        critical_count=critical,
        interleave_offset=offset,
    )


# ----------------------------------------------------------------------
def generate_candidates(
    spec: WebsiteSpec, config: Optional[CandidateConfig] = None
) -> CandidateSet:
    """The seeded population for one site (see module docstring)."""
    config = config or CandidateConfig()
    suite = build_strategy_suite(spec)
    optimized_spec = next(
        d.spec for d in suite if d.name == "no_push_optimized"
    )
    built: Dict[str, BuiltSite] = {
        "plain": build_site(spec),
        "optimized": build_site(optimized_spec),
    }
    dbs = {variant: record_site(site) for variant, site in built.items()}
    specs = {"plain": spec, "optimized": optimized_spec}
    tables = {
        variant: resource_table(specs[variant], dbs[variant])
        for variant in VARIANTS
    }
    offsets: Dict[str, List[Optional[int]]] = {
        variant: [None, site.head_end_offset, site.head_end_offset * 2]
        for variant, site in built.items()
    }

    result = CandidateSet(site=spec.name, spec=spec, optimized_spec=optimized_spec)
    seen = set()

    def admit(name: str, policy: PushPolicy, anchor: bool = False) -> bool:
        fp = policy.fingerprint()
        if fp in seen:
            return False
        seen.add(fp)
        result.candidates.append(Candidate(name=name, policy=policy))
        if anchor:
            result.anchors.append(name)
        return True

    anchor_policies: List[Tuple[str, PushPolicy]] = []
    for deployment in suite:
        variant = "optimized" if deployment.name.endswith("optimized") else "plain"
        policy = _materialize(deployment, built[variant], dbs[variant])
        anchor_policies.append((deployment.name, policy))
        admit(f"s5/{deployment.name}", policy, anchor=True)

    rng = random.Random(f"optimizer/{spec.name}/{config.seed}")
    extras = 0
    for anchor_name, policy in anchor_policies:
        if not policy.urls:
            continue
        universe = [row.url for row in tables[policy.variant]]
        for index in range(config.neighbors_per_anchor):
            if extras >= config.population:
                break
            mutated = _mutate(policy, rng, universe, offsets[policy.variant])
            if admit(f"nbr{index}/{anchor_name}", mutated):
                extras += 1
    for index in range(config.restarts):
        if extras >= config.population:
            break
        if admit(f"rand{index}", _random_restart(rng, tables, offsets)):
            extras += 1
    return result
