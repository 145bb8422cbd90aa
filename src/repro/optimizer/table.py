"""The policy-table artifact: site-class × condition → best policy.

The optimizer's output is a deployable JSON document, content-addressed
the same way the golden records are: the ``table_sha`` field is the
SHA-256 of the canonical (sorted-keys) JSON of the meta block and the
entry list, so two optimizer runs agree iff their tables are
bit-identical.

Each entry records the winning :class:`~repro.optimizer.space.
PushPolicy` for one site × condition with its measured effect — paired
mean ΔSpeedIndex with CI half-width, Δp50 PLT — plus the oracle gap
against the best hand-crafted §5 deployment.  ``site_class`` groups
sites structurally so a CDN could apply a learned policy to unseen
sites of the same shape; :meth:`PolicyTable.best_for_class` aggregates
per class.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .space import PushPolicy

#: Bump when the JSON layout changes incompatibly.
TABLE_FORMAT = 1


@dataclass
class PolicyEntry:
    """The learned best policy for one site × condition."""

    site: str
    site_class: str
    condition: str
    policy: PushPolicy
    #: Candidate name the policy came from (``s5/...``, ``nbr.../...``,
    #: ``rand...``) — provenance, e.g. "was a hand-crafted anchor best?"
    source: str
    runs: int
    baseline_median_si_ms: float
    #: Paired mean ΔSpeedIndex vs the ``none`` baseline (%; negative =
    #: faster) with its CI half-width.
    delta_si_pct: float
    ci_half_width: float
    #: Δ of the median (p50) page load time vs baseline (%).
    delta_p50_plt_pct: float
    pushed_bytes: int
    #: Learned minus best hand-crafted ΔSI (≤ 0 means the learned
    #: policy is at least as good as every §5 deployment).
    oracle_gap_pct: float

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "site_class": self.site_class,
            "condition": self.condition,
            "policy": self.policy.to_json(),
            "policy_fingerprint": self.policy.fingerprint(),
            "source": self.source,
            "runs": self.runs,
            "baseline_median_si_ms": self.baseline_median_si_ms,
            "delta_si_pct": self.delta_si_pct,
            "ci_half_width": self.ci_half_width,
            "delta_p50_plt_pct": self.delta_p50_plt_pct,
            "pushed_bytes": self.pushed_bytes,
            "oracle_gap_pct": self.oracle_gap_pct,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PolicyEntry":
        """Inverse of :meth:`to_json`; a missing field raises
        ``KeyError``, a field of the wrong type ``TypeError``."""
        values = {name: payload[name] for name in _ENTRY_FIELDS}
        for name, kinds in _ENTRY_FIELDS.items():
            if type(values[name]) not in kinds:
                raise TypeError(f"entry field {name!r} is not {kinds[0].__name__}")
        return cls(policy=PushPolicy.from_json(payload["policy"]), **values)


#: Every scalar field of a saved :class:`PolicyEntry` and the JSON types
#: it may take (a float that happens to be integral is saved as one).
_ENTRY_FIELDS = {
    "site": (str,),
    "site_class": (str,),
    "condition": (str,),
    "source": (str,),
    "runs": (int,),
    "baseline_median_si_ms": (float, int),
    "delta_si_pct": (float, int),
    "ci_half_width": (float, int),
    "delta_p50_plt_pct": (float, int),
    "pushed_bytes": (int,),
    "oracle_gap_pct": (float, int),
}


@dataclass
class PolicyTable:
    """All learned policies of one optimizer run."""

    #: Reproducibility context: seed, rung schedule, allocator, corpus.
    meta: Dict[str, object] = field(default_factory=dict)
    entries: List[PolicyEntry] = field(default_factory=list)

    def add(self, entry: PolicyEntry) -> None:
        if self.lookup(entry.site, entry.condition) is not None:
            raise ConfigError(
                f"duplicate table entry for {entry.site} × {entry.condition}"
            )
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.site, e.condition))

    def lookup(self, site: str, condition: str) -> Optional[PolicyEntry]:
        for entry in self.entries:
            if entry.site == site and entry.condition == condition:
                return entry
        return None

    def best_for_class(
        self, site_class: str, condition: str
    ) -> Optional[PolicyEntry]:
        """The strongest measured entry of a structural class — what a
        CDN would deploy on an unseen site of that shape."""
        matching = [
            e
            for e in self.entries
            if e.site_class == site_class and e.condition == condition
        ]
        if not matching:
            return None
        return min(matching, key=lambda e: (e.delta_si_pct, e.site))

    # ------------------------------------------------------------------
    def _payload(self) -> dict:
        return {
            "format": TABLE_FORMAT,
            "meta": self.meta,
            "entries": [entry.to_json() for entry in self.entries],
        }

    def sha(self) -> str:
        """Content address over the canonical JSON (golden-style)."""
        canonical = json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        payload = self._payload()
        payload["table_sha"] = self.sha()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "PolicyTable":
        """Rebuild a saved table.  Anything that does not have the saved
        shape — a missing key, a wrong container, a field of the wrong
        type, content that does not match its ``table_sha`` — raises
        :class:`~repro.errors.ConfigError`."""
        try:
            if payload.get("format") != TABLE_FORMAT:
                raise ConfigError(
                    f"unsupported policy-table format {payload.get('format')!r}"
                )
            meta = payload.get("meta", {})
            if not isinstance(meta, dict):
                raise TypeError("meta is not an object")
            table = cls(
                meta=dict(meta),
                entries=[PolicyEntry.from_json(e) for e in payload.get("entries", [])],
            )
            recorded = payload.get("table_sha")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed policy table: {exc!r}") from None
        if recorded is not None and recorded != table.sha():
            raise ConfigError(
                "policy table content does not match its table_sha "
                f"(recorded {str(recorded)[:12]}, computed {table.sha()[:12]})"
            )
        return table

    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path) -> "PolicyTable":
        """Read a saved table; see :meth:`from_json` for what raises."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"policy table {path} is not JSON: {exc}") from None
        return cls.from_json(payload)
