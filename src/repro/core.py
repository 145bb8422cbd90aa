"""Simulation-core selection: fastcore vs pure-Python oracle.

The replay hot loop exists in two interchangeable implementations:

* ``fast`` — the batch-steppable fastcore (:mod:`repro.sim.fastcore`):
  a calendar queue with dedicated monotonic timer lanes, no-handle
  scheduling for fire-and-forget events, and same-timestamp batch
  dispatch.  This is the default.
* ``python`` — the original heap-based :class:`repro.sim.events.Simulator`,
  retained verbatim as the **bit-identity oracle**.  Every observable
  of a replay (event order, wire bytes, PLT, determinism counters,
  engine cache fingerprints) must be identical under both cores; the
  fastcore-vs-oracle equivalence suite and the golden records enforce
  this, following the ``huffman_decode_reference`` pattern.

Selection is by the ``REPRO_CORE`` environment variable (``fast`` |
``python``), the ``--core`` CLI flag, or :func:`set_core_mode`.  When
the optional mypyc-compiled build of the fastcore is installed
(``pip install -e .[fast]``), ``fast`` transparently uses it; the pure
interpretation of the same module is used otherwise, so ``fast`` never
requires a compiler.  ``REPRO_CORE=compiled`` insists on the compiled
extension and raises if it is absent — CI uses it to make sure the
compiled job really exercised compiled code.
"""

from __future__ import annotations

import os
from typing import Optional

from .errors import ConfigError

_VALID = ("fast", "python", "compiled")

#: Process-wide override; ``None`` defers to the environment.
_mode_override: Optional[str] = None


def _env_mode() -> str:
    mode = os.environ.get("REPRO_CORE", "fast").strip().lower()
    if mode not in _VALID:
        raise ConfigError(
            f"REPRO_CORE={os.environ['REPRO_CORE']!r} is not a simulation core; "
            f"choose one of {', '.join(_VALID)}"
        )
    return mode


def core_mode() -> str:
    """The active core: ``fast``, ``python``, or ``compiled``."""
    return _mode_override if _mode_override is not None else _env_mode()


def set_core_mode(mode: Optional[str]) -> None:
    """Override the core for this process (``None`` restores env/default)."""
    global _mode_override
    if mode is not None and mode not in _VALID:
        raise ValueError(f"invalid core mode {mode!r}; choose from {_VALID}")
    _mode_override = mode


def compiled_available() -> bool:
    """True when the mypyc-compiled fastcore extension is importable."""
    try:
        from .sim import fastcore

        return not fastcore.__file__.endswith(".py")
    except ImportError:  # pragma: no cover - fastcore always ships
        return False


def use_fastcore() -> bool:
    """True when simulators should be built on the fastcore."""
    mode = core_mode()
    if mode == "compiled" and not compiled_available():
        raise RuntimeError(
            "REPRO_CORE=compiled but the mypyc-compiled fastcore is not "
            "installed; build it with `pip install -e .[fast]` or use "
            "REPRO_CORE=fast"
        )
    return mode in ("fast", "compiled")


# ----------------------------------------------------------------------
# fork-point replay (REPRO_FORK)
# ----------------------------------------------------------------------
#: Process-wide override for fork-point replay; ``None`` defers to env.
_fork_override: Optional[bool] = None

_FORK_OFF = ("0", "off", "false", "no")


def fork_enabled() -> bool:
    """True when eligible runs may reuse shared prefixes via forking.

    Fork-point replay (see :mod:`repro.sim.snapshot` and DESIGN §14) is
    bit-identical to straight-through execution, so it is on by
    default; set ``REPRO_FORK=0`` (or :func:`set_fork_mode`) to force
    every run straight through — CI diffs the two.
    """
    if _fork_override is not None:
        return _fork_override
    return os.environ.get("REPRO_FORK", "1").strip().lower() not in _FORK_OFF


def set_fork_mode(enabled: Optional[bool]) -> None:
    """Override fork-point replay for this process (``None`` → env)."""
    global _fork_override
    _fork_override = enabled
