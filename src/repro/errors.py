"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so
callers can catch package-level failures with a single ``except`` clause
while still being able to distinguish protocol errors from simulation or
configuration mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    was already stopped, or re-entrant ``run()`` calls.
    """


class NetworkError(ReproError):
    """A network-substrate invariant was violated.

    Examples: writing to a closed endpoint or connecting to a host that
    is not part of the topology.
    """


class ProtocolError(ReproError):
    """An HTTP/2 protocol violation (connection error in RFC 7540 terms)."""

    def __init__(self, message: str, error_code: int = 1):
        super().__init__(message)
        #: RFC 7540 §7 error code associated with this violation.
        self.error_code = error_code


class StreamError(ReproError):
    """An HTTP/2 stream-level error (stream error in RFC 7540 terms)."""

    def __init__(self, message: str, stream_id: int, error_code: int = 1):
        super().__init__(message)
        self.stream_id = stream_id
        self.error_code = error_code

    def __reduce__(self):
        # ``args`` holds the message alone; rebuild from every argument
        # so the error survives a pipe to or from a worker process.
        return (type(self), (self.args[0], self.stream_id, self.error_code))


class HpackError(ProtocolError):
    """HPACK (RFC 7541) decoding failure; always a COMPRESSION_ERROR."""

    def __init__(self, message: str):
        # 0x9 == COMPRESSION_ERROR
        super().__init__(message, error_code=0x9)


class FlowControlError(ProtocolError):
    """A flow-control window was violated or overflowed."""

    def __init__(self, message: str):
        # 0x3 == FLOW_CONTROL_ERROR
        super().__init__(message, error_code=0x3)


class ReplayError(ReproError):
    """Record/replay failures: unknown request, malformed record DB."""


class BrowserError(ReproError):
    """The browser model reached an inconsistent internal state."""


class ConfigError(ReproError):
    """Invalid experiment or testbed configuration."""


class ExperimentError(ReproError):
    """An experiment cell produced inconsistent or unusable results.

    Examples: per-run pushed-byte counts that disagree within one cell,
    or a cached record that fails integrity checks.
    """


class ExecutorError(ExperimentError):
    """Cells could not be executed after exhausting every recovery path.

    Raised by the warm worker pool when a cell's work units failed
    permanently — its worker process crashed more times than the retry
    budget allows, or the cell raised inside the worker.  Cells that
    completed before the failure keep their results (and cache entries);
    ``failed_cells`` lists ``(cell_index, label, reason)`` triples for
    the ones that did not.
    """

    def __init__(self, message: str, failed_cells=()):
        super().__init__(message)
        #: ``(index into the submitted batch, cell label, reason)``.
        self.failed_cells = list(failed_cells)
