"""Certificate model for HTTP/2 connection coalescing.

The paper modifies Mahimahi to generate, per local server, a TLS
certificate whose Subject Alternative Names cover *every domain hosted
on that server's IP* (§4.1).  A browser then coalesces connections: a
request for ``img.bbystatic.com`` rides the existing ``bestbuy.com``
connection when (a) both names resolve to the same IP and (b) the
presented certificate's SANs include the new name.  Coalescing is what
makes such third-party-looking resources pushable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from ..errors import ReplayError


@dataclass(frozen=True)
class Certificate:
    """A served certificate: subject plus SAN set."""

    subject: str
    sans: frozenset = field(default_factory=frozenset)

    def covers(self, domain: str) -> bool:
        """True if this certificate is valid for ``domain``.

        Supports one level of wildcard matching (``*.example.com``).
        """
        if domain == self.subject or domain in self.sans:
            return True
        if "." in domain:
            wildcard = "*." + domain.split(".", 1)[1]
            return wildcard == self.subject or wildcard in self.sans
        return False


class CertificateAuthority:
    """Issues per-IP certificates covering all co-hosted domains."""

    def __init__(self):
        self._by_ip: Dict[str, Certificate] = {}

    def issue(self, ip: str, domains: Iterable[str]) -> Certificate:
        domain_set: Set[str] = set(domains)
        if not domain_set:
            raise ReplayError(f"cannot issue certificate for {ip} with no domains")
        subject = sorted(domain_set)[0]
        cert = Certificate(subject=subject, sans=frozenset(domain_set))
        self._by_ip[ip] = cert
        return cert

    def cert_for_ip(self, ip: str) -> Certificate:
        try:
            return self._by_ip[ip]
        except KeyError:
            raise ReplayError(f"no certificate issued for {ip}") from None

    def can_coalesce(self, existing_ip: str, domain: str, resolved_ip: str) -> bool:
        """The RFC 7540 §9.1.1 coalescing test a browser applies."""
        if existing_ip != resolved_ip:
            return False
        cert = self._by_ip.get(existing_ip)
        return cert is not None and cert.covers(domain)
