"""The record database: request/response pairs for replay.

Mahimahi stores recorded HTTP traffic as request/response protobufs,
one file per exchange; at replay time a matcher serves responses from
this store (§4.1).  This module provides the equivalent store with a
JSON-per-record on-disk format (bodies base64-encoded) so recorded
sites can be saved, inspected, and reloaded.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReplayError
from ..html.resources import ResourceType, classify_content_type, split_url
from ..span import Body

Header = Tuple[str, str]


@dataclass
class ResponseRecord:
    """One recorded HTTP exchange."""

    url: str
    status: int = 200
    headers: List[Header] = field(default_factory=list)
    #: ``bytes``, or a view for a body nothing reads (``Body``).
    body: Body = b""
    method: str = "GET"

    def __post_init__(self) -> None:
        #: The resource class, from ``content-type``.  Classified when
        #: the record is made: the server asks per request, a record is
        #: read-only once recorded, and a lazy cache would make a
        #: record's first replay do work its later replays skip.
        self.rtype: ResourceType = classify_content_type(self.content_type)

    @property
    def domain(self) -> str:
        return split_url(self.url)[0]

    @property
    def path(self) -> str:
        return split_url(self.url)[1]

    @property
    def content_type(self) -> Optional[str]:
        for name, value in self.headers:
            if name.lower() == "content-type":
                return value
        return None

    @property
    def size(self) -> int:
        return len(self.body)

    def response_headers(self) -> List[Header]:
        """Headers as sent on the wire (adds :status pseudo-header)."""
        return [(":status", str(self.status))] + list(self.headers)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "method": self.method,
            "url": self.url,
            "status": self.status,
            "headers": list(map(list, self.headers)),
            "body_b64": base64.b64encode(self.body).decode("ascii"),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResponseRecord":
        try:
            return cls(
                url=data["url"],
                status=int(data["status"]),
                headers=[(name, value) for name, value in data["headers"]],
                body=base64.b64decode(data["body_b64"]),
                method=data.get("method", "GET"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ReplayError(f"malformed record: {exc}") from exc


class RecordDatabase:
    """All recorded exchanges of one browsing session."""

    def __init__(self):
        self._records: Dict[Tuple[str, str], ResponseRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResponseRecord]:
        return iter(self._records.values())

    def add(self, record: ResponseRecord) -> None:
        key = (record.method, record.url)
        if key in self._records:
            raise ReplayError(f"duplicate record for {record.method} {record.url}")
        self._records[key] = record

    def get(self, url: str, method: str = "GET") -> Optional[ResponseRecord]:
        return self._records.get((method, url))

    def urls(self) -> List[str]:
        return [record.url for record in self._records.values()]

    def by_domain(self, domain: str) -> List[ResponseRecord]:
        return [record for record in self._records.values() if record.domain == domain]

    def by_type(self, rtype: ResourceType) -> List[ResponseRecord]:
        return [record for record in self._records.values() if record.rtype == rtype]

    # ------------------------------------------------------------------
    # persistence (one JSON file per record, Mahimahi-style)
    # ------------------------------------------------------------------
    def save(self, directory) -> int:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        for index, record in enumerate(self._records.values()):
            file_path = path / f"record-{index:05d}.json"
            file_path.write_text(json.dumps(record.to_json()))
        return len(self._records)

    @classmethod
    def load(cls, directory) -> "RecordDatabase":
        path = Path(directory)
        if not path.is_dir():
            raise ReplayError(f"record directory {path} does not exist")
        db = cls()
        for file_path in sorted(path.glob("record-*.json")):
            db.add(ResponseRecord.from_json(json.loads(file_path.read_text())))
        return db
