"""PolicyTable artifact: content addressing, round trips, lookups."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.optimizer import PolicyEntry, PolicyTable, PushPolicy
from tests.support.damage import damaged_json


def _entry(site="w3", condition="clean_dsl", delta=-10.0, site_class="small_static"):
    return PolicyEntry(
        site=site,
        site_class=site_class,
        condition=condition,
        policy=PushPolicy(urls=("https://d/a.css",), critical_count=1),
        source="s5/push_critical",
        runs=5,
        baseline_median_si_ms=1200.0,
        delta_si_pct=delta,
        ci_half_width=1.5,
        delta_p50_plt_pct=-4.0,
        pushed_bytes=34_000,
        oracle_gap_pct=0.0,
    )


def test_add_lookup_and_duplicate_rejection():
    table = PolicyTable(meta={"seed": 2018})
    table.add(_entry())
    table.add(_entry(condition="lossy_dsl"))
    assert table.lookup("w3", "clean_dsl").delta_si_pct == -10.0
    assert table.lookup("w3", "nope") is None
    with pytest.raises(ConfigError):
        table.add(_entry())


def test_sha_is_content_addressed():
    a = PolicyTable(meta={"seed": 2018})
    a.add(_entry())
    b = PolicyTable(meta={"seed": 2018})
    b.add(_entry())
    assert a.sha() == b.sha()
    b.add(_entry(condition="lossy_dsl"))
    assert a.sha() != b.sha()
    c = PolicyTable(meta={"seed": 2019})
    c.add(_entry())
    assert a.sha() != c.sha()


def test_save_load_round_trip(tmp_path):
    table = PolicyTable(meta={"seed": 2018})
    table.add(_entry())
    path = table.save(tmp_path / "policies.json")
    loaded = PolicyTable.load(path)
    assert loaded.sha() == table.sha()
    assert loaded.entries[0].policy == table.entries[0].policy
    assert loaded.meta == table.meta


def test_load_rejects_tampered_content(tmp_path):
    table = PolicyTable(meta={"seed": 2018})
    table.add(_entry())
    path = table.save(tmp_path / "policies.json")
    payload = json.loads(path.read_text())
    payload["entries"][0]["delta_si_pct"] = -99.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="table_sha"):
        PolicyTable.load(path)


def test_load_rejects_unknown_format():
    with pytest.raises(ConfigError, match="format"):
        PolicyTable.from_json({"format": 999, "meta": {}, "entries": []})


def test_best_for_class_picks_strongest_measured_entry():
    table = PolicyTable()
    table.add(_entry(site="w3", delta=-10.0))
    table.add(_entry(site="w5", delta=-25.0))
    table.add(_entry(site="w9", delta=-5.0, site_class="image_heavy"))
    best = table.best_for_class("small_static", "clean_dsl")
    assert best.site == "w5"
    assert table.best_for_class("many_objects", "clean_dsl") is None


# ----------------------------------------------------------------------
# a real table, damaged
# ----------------------------------------------------------------------
_GOLDEN_TABLE = json.loads(
    (Path(__file__).parent / "golden_optimizer_cell.json").read_text()
)["table"]
#: Without its content address, damage to a field is parsed, not caught
#: by the sha check.
_UNSIGNED_TABLE = {k: v for k, v in _GOLDEN_TABLE.items() if k != "table_sha"}


@given(
    damaged_json(_GOLDEN_TABLE) | damaged_json(_UNSIGNED_TABLE),
    st.sampled_from(["json", "truncated", "bytes"]),
)
@settings(max_examples=300, deadline=None)
def test_damaged_table_loads_or_raises_config_error(tmp_path_factory, damaged, form):
    document, _path = damaged
    text = json.dumps(document)
    path = tmp_path_factory.getbasetemp() / "damaged-table.json"
    if form == "bytes":
        path.write_bytes(text.encode() + b"\xff")
    else:
        path.write_text(text if form == "json" else text[: len(text) // 2])
    try:
        table = PolicyTable.load(path)
    except ConfigError:
        return
    # Anything that loaded is well typed: it saves and loads again.
    assert PolicyTable.from_json(json.loads(json.dumps(table.to_json()))).sha() == table.sha()


def test_load_rejects_each_malformed_shape(tmp_path):
    """Each used to escape as a bare built-in exception."""
    entry = dict(_GOLDEN_TABLE["entries"][0])
    del entry["runs"]
    for text in (
        "[]",
        "{not json",
        json.dumps({**_GOLDEN_TABLE, "entries": [entry]}),
        json.dumps({**_GOLDEN_TABLE, "entries": [3]}),
        json.dumps({**_GOLDEN_TABLE, "entries": 3}),
        json.dumps({**_GOLDEN_TABLE, "meta": [1, 2]}),
        json.dumps({**_GOLDEN_TABLE, "table_sha": 7}),
    ):
        path = tmp_path / "table.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            PolicyTable.load(path)
