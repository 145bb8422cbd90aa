"""The push-policy search space.

A :class:`PushPolicy` is one point in the space the paper leaves
unexplored (§7, "what is the best possible push policy?"): which
authoritative resources to push, in what order, how many, whether the
deployment is the plain or the critical-CSS-optimized site, and at
which byte offset the interleaving scheduler pauses the HTML.  The
hand-crafted §5 deployments are six specific points of this space; the
optimizer races populations of neighboring and random points against
them.

Policies are immutable value objects: content-fingerprintable (the
cache key of every candidate cell embeds the policy through its
strategy), JSON round-trippable (the ``PolicyTable`` artifact), and
convertible to a deployable strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigError
from ..html.resources import ResourceType
from ..html.spec import WebsiteSpec
from ..strategies.table import TablePolicyStrategy

#: The two deployment variants a policy can target: the site as
#: recorded, or the §5 critical-CSS rewrite (penthouse transformation).
VARIANTS = ("plain", "optimized")


@dataclass(frozen=True)
class PushPolicy:
    """One candidate push policy: deployment variant + ordered pushes.

    ``urls`` is the full ordered push list; the first
    ``critical_count`` entries form the critical prefix that the
    interleaving scheduler weaves into the HTML at
    ``interleave_offset`` (ignored when the offset is ``None``).  An
    empty ``urls`` is the "push nothing" policy — a legitimate search
    point (for many sites the best policy *is* to not push).
    """

    variant: str = "plain"
    urls: Tuple[str, ...] = ()
    critical_count: int = 0
    interleave_offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown policy variant {self.variant!r} "
                f"(available: {', '.join(VARIANTS)})"
            )
        if not 0 <= self.critical_count <= len(self.urls):
            raise ConfigError(
                f"critical_count {self.critical_count} outside "
                f"[0, {len(self.urls)}]"
            )
        if len(set(self.urls)) != len(self.urls):
            raise ConfigError("policy urls must be unique")

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content address of the policy itself."""
        from ..experiments.engine.fingerprint import fingerprint

        return fingerprint({"push_policy": self.to_json()})

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "urls": list(self.urls),
            "critical_count": self.critical_count,
            "interleave_offset": self.interleave_offset,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PushPolicy":
        """Inverse of :meth:`to_json`; a field of the wrong type raises
        :class:`~repro.errors.ConfigError`."""
        variant, urls = payload["variant"], payload["urls"]
        critical_count = payload["critical_count"]
        offset = payload["interleave_offset"]
        if not (
            type(variant) is str
            and type(urls) is list
            and all(type(url) is str for url in urls)
            and type(critical_count) is int
            and (offset is None or type(offset) is int)
        ):
            raise ConfigError(f"malformed push policy: {payload!r}")
        return cls(
            variant=variant,
            urls=tuple(urls),
            critical_count=critical_count,
            interleave_offset=offset,
        )

    # ------------------------------------------------------------------
    def as_strategy(self, name: Optional[str] = None) -> TablePolicyStrategy:
        """The deployable strategy replaying this policy.

        The default name embeds the policy fingerprint, so a learned
        policy's cells stay content-addressed and re-runs of the
        optimizer reproduce identical cache keys.
        """
        return TablePolicyStrategy(
            urls=self.urls,
            critical_count=self.critical_count,
            interleave_offset=self.interleave_offset,
            name=name or f"policy_{self.fingerprint()[:12]}",
        )

    @property
    def push_count(self) -> int:
        return len(self.urls)

    @property
    def interleaving(self) -> bool:
        return self.interleave_offset is not None and self.critical_count > 0


def site_class(spec: WebsiteSpec) -> str:
    """Coarse structural class of a site, the table's grouping key.

    The verdict-flipping features the paper identifies (§5, Fig. 6)
    are structural: object count, render-blocking CSS/JS in the head,
    and byte share of images.  The class is derived from the spec
    alone, so it is deterministic and available without any loads.
    """
    resources = list(spec.resources)
    if len(resources) >= 50:
        return "many_objects"
    blocking_js = sum(
        1
        for res in resources
        if res.rtype == ResourceType.JS
        and res.in_head
        and not (res.async_script or res.defer_script)
    )
    if blocking_js >= 2:
        return "script_blocking"
    head_css = sum(
        1
        for res in resources
        if res.rtype == ResourceType.CSS and res.in_head and not res.media_print
    )
    if head_css >= 2:
        return "style_blocking"
    total_bytes = sum(res.size for res in resources) or 1
    image_bytes = sum(
        res.size for res in resources if res.rtype == ResourceType.IMAGE
    )
    if image_bytes / total_bytes >= 0.5:
        return "image_heavy"
    return "small_static"
