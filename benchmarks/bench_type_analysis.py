"""§4.2 text statistics — pushable objects and object-type strategies.

Reproduction targets:
* pushable share: ~52% of top-100 (24% of random-100) sites have fewer
  than 20% pushable objects;
* pushing images worsens SpeedIndex for a large majority of sites
  (paper: 74%);
* even the best per-site type strategy improves only a minority
  (paper: 24% SpeedIndex / 20% PLT).
"""

from conftest import write_report

from repro.experiments import (
    TypeAnalysisConfig,
    run_pushable_share,
    run_type_analysis,
)


def test_pushable_share_table():
    result = run_pushable_share(sites=100)
    write_report("table_pushable_share", result.render())
    assert 0.35 <= result.top_below_20 <= 0.70      # paper: 52%
    assert 0.10 <= result.random_below_20 <= 0.40   # paper: 24%
    assert result.top_below_20 > result.random_below_20


def test_type_analysis():
    config = TypeAnalysisConfig(sites=10, runs=3)
    result = run_type_analysis(config)
    write_report("table_type_analysis", result.render())

    # Images: mostly harmful (paper: 74% of sites worse).
    assert result.images_worse_share >= 0.5
    # The best type strategy helps only a minority of sites.
    assert result.best_type_improves_si <= 0.6
