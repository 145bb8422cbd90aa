"""Fig. 5b — the Interleaving Push motivating example (§5).

A page with one CSS in <head> and a growing <body>.  Reproduction
targets: no push ≈ push (the pushed CSS is a child of the HTML stream
and waits for it), both degrade as the document grows; interleaving is
fast and nearly flat.
"""

from conftest import write_report

from repro.experiments import Fig5Config, run_fig5


def test_fig5_interleaving():
    config = Fig5Config(html_sizes_kb=(10, 20, 30, 40, 50, 60, 70, 80, 90), runs=5)
    result = run_fig5(config)
    write_report("fig5_interleaving", result.render())

    first, last = result.rows[0], result.rows[-1]
    # no push and push degrade with document size...
    assert last.no_push_si > first.no_push_si + 40
    # ...and track each other closely (the push waits for the HTML).
    for row in result.rows:
        assert abs(row.push_si - row.no_push_si) < 0.15 * row.no_push_si
    # Interleaving stays nearly constant over the upper sweep...
    upper = [row.interleaving_si for row in result.rows if row.html_kb >= 30]
    assert max(upper) - min(upper) < 25
    # ...and clearly beats both alternatives on large documents.
    assert last.interleaving_si < last.no_push_si - 50
    assert result.interleaving_spread < result.no_push_spread
