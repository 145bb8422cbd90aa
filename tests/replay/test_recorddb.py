"""Tests for the record database."""

import pytest

from repro.errors import ReplayError
from repro.html import ResourceSpec, WebsiteSpec, build_site
from repro.html.resources import ResourceType
from repro.replay.recorddb import RecordDatabase, ResponseRecord
from repro.replay.recorder import record_site


def make_record(url="https://x.example/a.css", content_type="text/css", body=b"x{}"):
    return ResponseRecord(
        url=url,
        status=200,
        headers=[("content-type", content_type), ("content-length", str(len(body)))],
        body=body,
    )


def test_record_properties():
    record = make_record()
    assert record.domain == "x.example"
    assert record.path == "/a.css"
    assert record.rtype == ResourceType.CSS
    assert record.size == 3
    assert record.response_headers()[0] == (":status", "200")


def test_add_and_get():
    db = RecordDatabase()
    db.add(make_record())
    assert db.get("https://x.example/a.css").body == b"x{}"
    assert db.get("https://x.example/missing") is None


def test_duplicate_rejected():
    db = RecordDatabase()
    db.add(make_record())
    with pytest.raises(ReplayError):
        db.add(make_record())


def test_by_domain_and_type():
    db = RecordDatabase()
    db.add(make_record("https://x.example/a.css"))
    db.add(make_record("https://y.example/b.js", "application/javascript"))
    assert len(db.by_domain("x.example")) == 1
    assert len(db.by_type(ResourceType.JS)) == 1


def test_json_round_trip():
    record = make_record(body=bytes(range(256)))
    restored = ResponseRecord.from_json(record.to_json())
    assert restored == record


def test_malformed_json_rejected():
    with pytest.raises(ReplayError):
        ResponseRecord.from_json({"url": "x"})


def test_save_and_load(tmp_path):
    db = RecordDatabase()
    db.add(make_record("https://x.example/a.css"))
    db.add(make_record("https://x.example/b.js", "text/javascript", b"var x;"))
    count = db.save(tmp_path / "records")
    assert count == 2
    loaded = RecordDatabase.load(tmp_path / "records")
    assert len(loaded) == 2
    assert loaded.get("https://x.example/b.js").body == b"var x;"


def test_opaque_views_round_trip_through_json(tmp_path):
    # An image body is a view of the builder's shared buffer; base64
    # encodes it like bytes, and it reloads as bytes of equal content.
    spec = WebsiteSpec(
        name="views",
        primary_domain="x.example",
        html_size=5_000,
        resources=[
            ResourceSpec("main.css", ResourceType.CSS, 2_000, in_head=True),
            ResourceSpec("pic.jpg", ResourceType.IMAGE, 9_000, body_fraction=0.5),
            ResourceSpec("f.woff2", ResourceType.FONT, 3_000, loaded_by="main.css"),
        ],
    )
    db = record_site(build_site(spec))
    views = [record for record in db if isinstance(record.body, memoryview)]
    assert {record.rtype for record in views} == {ResourceType.IMAGE, ResourceType.FONT}
    db.save(tmp_path / "records")
    loaded = RecordDatabase.load(tmp_path / "records")
    for record in db:
        restored = loaded.get(record.url)
        assert type(restored.body) is bytes
        assert restored.body == record.body
        assert restored.size == record.size


def test_load_missing_directory(tmp_path):
    with pytest.raises(ReplayError):
        RecordDatabase.load(tmp_path / "nope")
