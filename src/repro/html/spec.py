"""Declarative website descriptions.

A :class:`WebsiteSpec` captures the structural features the paper's
analysis turns on — HTML size, where each resource is referenced,
whether scripts block, what paints above the fold, which domains host
what — and is *rendered to real bytes* by :mod:`repro.html.builder`.
The replay recorder stores those bytes; the browser model rediscovers
every property by parsing them.  Nothing about a page reaches the
browser out of band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import ConfigError
from .resources import ResourceType, make_url


@dataclass
class ResourceSpec:
    """One sub-resource of a website."""

    name: str
    rtype: ResourceType
    size: int
    #: Hosting domain; ``None`` means the site's primary domain.
    domain: Optional[str] = None
    #: Referenced from ``<head>`` (render-blocking position).
    in_head: bool = False
    #: Relative position of the reference within ``<body>`` (0..1).
    body_fraction: float = 0.1
    #: Script loading attributes.
    async_script: bool = False
    defer_script: bool = False
    #: Main-thread cost to execute (JS) or parse (CSS), in ms.
    exec_ms: float = 0.0
    #: Contribution to the above-the-fold visual completeness when
    #: this resource is painted (0 = invisible, e.g. analytics JS).
    visual_weight: float = 0.0
    #: Below-the-fold resources load but never paint in the viewport.
    above_fold: bool = True
    #: Name of the CSS/JS resource whose *content* references this one
    #: (a font in a stylesheet, a script-injected image, ...).  Hidden
    #: resources are only discoverable after the parent loads/executes.
    loaded_by: Optional[str] = None
    #: ``media="print"`` stylesheets are not render-blocking.
    media_print: bool = False
    #: For CSS: fraction of the stylesheet's rules needed to paint
    #: above-the-fold content (what penthouse would extract).
    critical_fraction: float = 0.25
    #: Announce this resource with a ``<link rel="preload">`` tag at the
    #: top of ``<head>`` — the author-side push alternative the web
    #: standardized on.  Off by default; pages without the flag render
    #: byte-identically to every earlier release.
    preload: bool = False

    #: Fingerprint-neutral defaults: cells whose specs leave these knobs
    #: at their default keep their historical cache keys (see
    #: repro.experiments.engine.fingerprint).
    FINGERPRINT_NEUTRAL = {"preload": False}

    def url(self, primary_domain: str) -> str:
        return make_url(self.domain or primary_domain, self.name)


@dataclass
class WebsiteSpec:
    """A complete website: the base document plus its resources."""

    name: str
    primary_domain: str
    html_size: int = 30_000
    #: Visual weight of the HTML's own above-the-fold text content.
    html_visual_weight: float = 30.0
    #: Fraction of the body's text blocks that sit above the fold
    #: (carry visual weight).  1.0 = the whole page is in the viewport;
    #: 0.25 = only the first quarter of the text paints ATF, so growing
    #: the document adds only below-the-fold bytes (Fig. 5's test page).
    atf_text_fraction: float = 1.0
    #: Cost of inline blocking scripts in ``<head>`` / mid-``<body>``.
    head_inline_script_ms: float = 0.0
    body_inline_script_ms: float = 0.0
    #: Position of the inline body script (fraction of body).
    body_inline_fraction: float = 0.5
    resources: List[ResourceSpec] = field(default_factory=list)
    #: domain -> IP for every third-party domain (primary gets its own).
    domain_ips: Dict[str, str] = field(default_factory=dict)
    #: Domains sharing the primary server's IP *and* certificate SANs;
    #: content there is pushable after connection coalescing (§4.1).
    coalesced_domains: Set[str] = field(default_factory=set)
    primary_ip: str = "10.0.0.1"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        names = set()
        for res in self.resources:
            if res.name in names:
                raise ConfigError(f"{self.name}: duplicate resource name {res.name!r}")
            names.add(res.name)
            if res.size <= 0:
                raise ConfigError(f"{self.name}: resource {res.name} has size {res.size}")
            if not 0.0 <= res.body_fraction <= 1.0:
                raise ConfigError(f"{self.name}: body_fraction out of range for {res.name}")
        for res in self.resources:
            if res.loaded_by is not None and res.loaded_by not in names:
                raise ConfigError(
                    f"{self.name}: {res.name} loaded_by unknown resource {res.loaded_by!r}"
                )
        for domain in self.coalesced_domains:
            if domain != self.primary_domain and domain not in self.domain_ips:
                # Coalesced domains resolve to the primary IP.
                self.domain_ips[domain] = self.primary_ip
        if self.html_size < 500:
            raise ConfigError(f"{self.name}: html_size {self.html_size} too small")

    # ------------------------------------------------------------------
    def resource(self, name: str) -> ResourceSpec:
        for res in self.resources:
            if res.name == name:
                return res
        raise KeyError(name)

    def url_of(self, name: str) -> str:
        return self.resource(name).url(self.primary_domain)

    def domain_of(self, res: ResourceSpec) -> str:
        return res.domain or self.primary_domain

    def ip_of_domain(self, domain: str) -> str:
        if domain == self.primary_domain or domain in self.coalesced_domains:
            return self.domain_ips.get(domain, self.primary_ip)
        try:
            return self.domain_ips[domain]
        except KeyError:
            raise ConfigError(f"{self.name}: no IP for domain {domain}") from None

    def all_domains(self) -> Set[str]:
        domains = {self.primary_domain}
        domains.update(self.coalesced_domains)
        for res in self.resources:
            domains.add(self.domain_of(res))
        return domains

    def pushable_resources(self) -> List[ResourceSpec]:
        """Resources the primary server is authoritative for (§4.2).

        Content on the primary domain or on a coalesced domain (same
        IP, covered by the certificate) can be pushed on the initial
        connection; everything else is beyond the server's authority.
        """
        pushable = []
        for res in self.resources:
            domain = self.domain_of(res)
            if domain == self.primary_domain or domain in self.coalesced_domains:
                pushable.append(res)
        return pushable

    def pushable_share(self) -> float:
        if not self.resources:
            return 0.0
        return len(self.pushable_resources()) / len(self.resources)

    def total_bytes(self) -> int:
        return self.html_size + sum(res.size for res in self.resources)

    def total_visual_weight(self) -> float:
        weight = self.html_visual_weight
        weight += sum(res.visual_weight for res in self.resources if res.above_fold)
        return weight
