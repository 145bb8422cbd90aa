"""Seed derivation for repeated experiment runs.

Every (site, strategy, environment) cell is replayed ``runs`` times;
each run needs *two* independent deterministic seeds:

* a **conditions** seed feeding the :class:`ConditionSampler` that
  draws the per-run network (RTT/bandwidth/loss for Internet-style
  variability; a no-op for the fixed testbed), and
* a **load** seed feeding the testbed's simulator RNG (loss and jitter
  draws inside one page load), and
* an **impairment** seed feeding the link-level impairment pipeline
  (packet loss, reordering, bandwidth fading draws) when the cell's
  conditions enable impairments — a no-op stream otherwise.

The streams intentionally use different mixing constants so that
run *i*'s network draw and run *i*'s in-load jitter are decorrelated
even for small ``seed_base`` values.  The exact formulas are frozen:
they reproduce the numbers of the original serial experiment loops, so
changing them invalidates every published figure and every cached cell.

Determinism contract: a run's seeds depend only on ``(seed_base,
run_index)`` — never on execution order, executor choice, or cache
state — which is what lets the parallel executor and the result cache
return bit-identical results.
"""

from __future__ import annotations

import hashlib

#: Mixing constants of the seed streams (see module docstring).
_CONDITION_STRIDE = 1_000_003
_CONDITION_XOR = 0x5EED
_LOAD_STRIDE = 1000
_IMPAIRMENT_STRIDE = 9_999_991
_IMPAIRMENT_XOR = 0xD10D
_POPULATION_COHORT_STRIDE = 69_995_159
_POPULATION_XOR = 0xB07
_CANDIDATE_RUN_STRIDE = 7_368_787
_CANDIDATE_XOR = 0xCA4D
_CANDIDATE_MOD = 2**31 - 1


def condition_seed(seed_base: int, run_index: int) -> int:
    """Seed for the per-run network-conditions draw."""
    return (seed_base * _CONDITION_STRIDE + run_index) ^ _CONDITION_XOR


def load_seed(seed_base: int, run_index: int) -> int:
    """Seed for the in-load simulator RNG (loss/jitter draws)."""
    return seed_base * _LOAD_STRIDE + run_index


def impairment_seed(seed_base: int, run_index: int) -> int:
    """Seed for the link impairment pipeline (loss/reorder/fading).

    Kept separate from the load stream so that enabling impairments in
    a cell cannot perturb the handshake/jitter draws of the historical
    RNG, and so two cells differing only in ``run_index`` replay
    decorrelated impairment patterns.
    """
    return (seed_base * _IMPAIRMENT_STRIDE + run_index) ^ _IMPAIRMENT_XOR


def candidate_seed(site: str, policy_fingerprint: str, run: int) -> int:
    """Seed base for run ``run`` of one optimizer-candidate evaluation.

    The optimizer races many candidate policies on one site as
    run-granular cells (``runs=1``, one cell per run index), so a
    candidate's measurement identity is the returned seed base plus the
    cell's own content-addressed key.  Two properties are load-bearing:

    * **CRN pairing** — the stream depends only on ``(site, run)``;
      ``policy_fingerprint`` is deliberately NOT mixed in.  Every arm
      of a race — the ``none`` baseline included — draws identical
      network/jitter/loss streams at the same run index, so per-run
      paired differences isolate the policy.
    * **Rung-geometry independence** — the seed does not depend on how
      many runs a rung asks for, so promoting a survivor from 2 to 5
      runs only adds new single-run cells; the first two stay
      cache-addressable under their existing keys.

    ``policy_fingerprint`` keeps call sites explicit about *what* is
    being evaluated (and reserves the signature for per-policy
    decorrelation should a future design want it); the result cache
    already distinguishes candidates because the policy's strategy is
    part of each cell's key.

    The site enters through a stable content hash — never ``hash()``,
    which is salted per process and would break cross-process caching.
    """
    if not isinstance(policy_fingerprint, str) or not policy_fingerprint:
        raise ValueError("policy_fingerprint must be a non-empty string")
    if run < 0:
        raise ValueError("run must be non-negative")
    digest = hashlib.sha256(site.encode("utf-8")).digest()
    site_stream = int.from_bytes(digest[:8], "big")
    return ((site_stream ^ _CANDIDATE_XOR) + run * _CANDIDATE_RUN_STRIDE) % _CANDIDATE_MOD


def population_seed_base(population_seed: int, cohort_index: int, load_index: int) -> int:
    """Seed base for one simulated client load of a population cohort.

    The population driver executes each load as its own single-run cell,
    so the seed base *is* the load's identity: it depends only on the
    study seed, the cohort's position, and the load's index within the
    cohort — never on batch geometry, executor choice, or how many
    loads ran before it.  Re-running a study with a different
    ``batch_size`` therefore replays byte-identical loads.

    The paired no-push/push arms of a load share this seed base
    (common random numbers): both arms draw the same client profile and
    the same in-load jitter, so their difference isolates the push
    strategy.
    """
    return (
        population_seed * _CONDITION_STRIDE
        + cohort_index * _POPULATION_COHORT_STRIDE
        + load_index
    ) ^ _POPULATION_XOR
