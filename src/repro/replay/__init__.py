"""Record-and-replay testbed (the paper's Mahimahi + h2o deployment)."""

from .certs import Certificate, CertificateAuthority
from .matcher import RequestMatcher
from .recorddb import RecordDatabase, ResponseRecord
from .recorder import record_site, record_spec
from .testbed import PageLoadResult, ReplayTestbed, replay_site

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "PageLoadResult",
    "RecordDatabase",
    "ReplayTestbed",
    "RequestMatcher",
    "ResponseRecord",
    "record_site",
    "record_spec",
    "replay_site",
]
