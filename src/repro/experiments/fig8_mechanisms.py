"""Fig. 8 (extension): the post-push world — push vs its successors.

The paper asks whether the web is ready for HTTP/2 server push; the
web's answer, a few years later, was to remove push and standardize on
three successor mechanisms: author-side ``<link rel="preload">``
markup, server-side **103 Early Hints** interim responses (RFC 8297),
and a transport — QUIC/HTTP/3 — whose per-stream delivery removes the
TCP head-of-line blocking that made push risky on lossy paths.  This
experiment replays the same multi-stream page under every
(mechanism × transport) combination, clean and lossy, so push's
round-trip savings can be compared directly against what replaced it.

Sweep axes:

* **mechanism** — ``none`` (baseline), ``push`` (everything pushed in
  plan order), ``preload`` (announcement tags lead ``<head>``),
  ``early_hints`` (an interim 103 leaves before the server's
  think time); see :func:`repro.mechanisms.apply_mechanism`;
* **transport** — ``tcp`` (the paper's stack) vs ``quic``
  (:mod:`repro.netsim.quic`): same HTTP/2 layer, same congestion
  controllers, no cross-stream loss coupling;
* **loss** — clean DSL vs i.i.d. packet loss on the same profile.

Methodology mirrors fig7: common random numbers across cells (same
``seed_base``), engine-backed cells (cached, reproducible,
``--jobs``-parallel).  The ``server_delay_ms`` of the swept conditions
is nonzero so Early Hints' head start over final-response link headers
is actually observable.

Reproduction targets:

* on the clean path, every mechanism recovers most of push's PLT edge
  over the baseline — discovery, not bytes-on-the-wire, is what push
  was buying (§5's conclusion restated);
* under loss, TCP's lossy/clean PLT inflation visibly exceeds QUIC's
  for this multi-stream page (transport HoL blocking), and push's
  advantage shrinks with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..html.resources import ResourceType
from ..html.spec import ResourceSpec, WebsiteSpec
from ..mechanisms import MECHANISMS, apply_mechanism
from ..netsim.conditions import TRANSPORTS, DSL_TESTBED, FixedConditions
from ..netsim.impairment import IIDLoss, ImpairmentConfig
from ..units import require_choice
from .engine import ExperimentEngine, Grid
from .engine.fingerprint import fingerprint
from .report import render_series


def make_mechanism_site(
    html_kb: int = 120,
    css_size: int = 12_000,
    js_size: int = 24_000,
    image_size: int = 40_000,
) -> WebsiteSpec:
    """A multi-stream page: enough parallel resource streams that one
    lost packet stalls *other* resources on TCP but not on QUIC."""
    return WebsiteSpec(
        name=f"fig8-{html_kb}kb",
        primary_domain="mechanisms.test",
        html_size=html_kb * 1000,
        html_visual_weight=30,
        atf_text_fraction=0.25,
        resources=[
            ResourceSpec(
                "style.css", ResourceType.CSS, css_size, in_head=True, exec_ms=2
            ),
            ResourceSpec(
                "app.js", ResourceType.JS, js_size, body_fraction=0.2, exec_ms=3
            ),
            ResourceSpec(
                "hero.jpg",
                ResourceType.IMAGE,
                image_size,
                body_fraction=0.3,
                visual_weight=20,
            ),
            ResourceSpec(
                "gallery.jpg",
                ResourceType.IMAGE,
                image_size,
                body_fraction=0.6,
                visual_weight=10,
            ),
        ],
    )


@dataclass
class Fig8Config:
    """Sweep axes: mechanisms × transports × loss."""

    mechanisms: Sequence[str] = MECHANISMS
    transports: Sequence[str] = TRANSPORTS
    loss_rates: Sequence[float] = (0.0, 0.02)
    html_kb: int = 120
    css_size: int = 12_000
    js_size: int = 24_000
    image_size: int = 40_000
    runs: int = 5
    #: Server think time before the base document: the head start 103
    #: Early Hints banks relative to final-response link headers.
    server_delay_ms: float = 30.0
    seed_base: int = 0

    @classmethod
    def quick(cls) -> "Fig8Config":
        """The CI smoke variant: full axes, smaller page, 2 runs."""
        return cls(html_kb=60, image_size=24_000, runs=2)

    def __post_init__(self) -> None:
        for mechanism in self.mechanisms:
            require_choice("mechanism", mechanism, MECHANISMS)
        for transport in self.transports:
            require_choice("transport", transport, TRANSPORTS)

    def impairment_for(self, loss_rate: float) -> Optional[ImpairmentConfig]:
        if loss_rate <= 0.0:
            return None
        return ImpairmentConfig(loss=IIDLoss(rate=loss_rate))


@dataclass
class Fig8Row:
    transport: str
    loss_rate: float
    mechanism: str
    median_plt: float
    median_si: float
    pushed_kb: float
    #: Content address of the cell's full result (every run's timeline);
    #: the CI smoke job diffs these across simulation cores.
    cell_fingerprint: str = ""


@dataclass
class Fig8Result:
    rows: List[Fig8Row] = field(default_factory=list)

    def row(self, transport: str, loss_rate: float, mechanism: str) -> Fig8Row:
        for candidate in self.rows:
            if (
                candidate.transport == transport
                and candidate.loss_rate == loss_rate
                and candidate.mechanism == mechanism
            ):
                return candidate
        raise KeyError((transport, loss_rate, mechanism))

    def inflation(self, transport: str, mechanism: str) -> Optional[float]:
        """Lossy/clean PLT ratio — the HoL-blocking cost of loss."""
        clean = lossy = None
        for row in self.rows:
            if row.transport != transport or row.mechanism != mechanism:
                continue
            if row.loss_rate == 0.0:
                clean = row.median_plt
            else:
                lossy = row.median_plt  # highest swept rate wins
        if clean is None or lossy is None or clean <= 0:
            return None
        return lossy / clean

    def cell_fingerprints(self) -> Dict[str, str]:
        """``transport/loss/mechanism`` -> result fingerprint, for
        diffing two sweeps cell by cell."""
        return {
            f"{row.transport}/{row.loss_rate:g}/{row.mechanism}": row.cell_fingerprint
            for row in self.rows
        }

    def render(self) -> str:
        baseline = {
            (row.transport, row.mechanism): row.median_plt
            for row in self.rows
            if row.loss_rate == 0.0
        }
        table_rows = []
        for row in self.rows:
            clean = baseline.get((row.transport, row.mechanism))
            inflation = (
                f"{row.median_plt / clean:.2f}x"
                if clean and row.loss_rate > 0.0
                else "-"
            )
            table_rows.append(
                (
                    row.transport,
                    f"{row.loss_rate * 100:g}%",
                    row.mechanism,
                    f"{row.median_plt:.0f}",
                    f"{row.median_si:.0f}",
                    inflation,
                    f"{row.pushed_kb:.0f}",
                )
            )
        return render_series(
            ("transport", "loss", "mechanism", "PLT ms", "SI ms", "infl", "pushed KB"),
            table_rows,
            title="Fig. 8 — push vs preload/103/QUIC (DSL profile)",
        )


def run_fig8(
    config: Fig8Config = Fig8Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig8Result:
    engine = engine or ExperimentEngine()
    base_spec = make_mechanism_site(
        config.html_kb, config.css_size, config.js_size, config.image_size
    )
    deployments = [
        apply_mechanism(mechanism, base_spec) for mechanism in config.mechanisms
    ]
    settings: List[Tuple[str, float]] = [
        (transport, loss)
        for transport in config.transports
        for loss in config.loss_rates
    ]
    grid = Grid(name="fig8_mechanisms")
    for transport, loss in settings:
        conditions = replace(
            DSL_TESTBED,
            transport=transport,
            server_delay_ms=config.server_delay_ms,
            impairment=config.impairment_for(loss),
        )
        sampler = FixedConditions(conditions)
        for mechanism, (spec, strategy) in zip(config.mechanisms, deployments):
            grid.add(
                spec,
                strategy,
                runs=config.runs,
                seed_base=config.seed_base,
                conditions=sampler,
                label=f"{transport}/{loss * 100:g}%/{mechanism}",
            )
    cells = engine.run(grid)
    result = Fig8Result()
    per_setting = len(config.mechanisms)
    for setting_index, (transport, loss) in enumerate(settings):
        for offset, mechanism in enumerate(config.mechanisms):
            repeated = cells[setting_index * per_setting + offset]
            result.rows.append(
                Fig8Row(
                    transport=transport,
                    loss_rate=loss,
                    mechanism=mechanism,
                    median_plt=repeated.median_plt,
                    median_si=repeated.median_si,
                    pushed_kb=repeated.pushed_bytes / 1000,
                    cell_fingerprint=fingerprint(repeated),
                )
            )
    return result
