"""The benchmark's layer hooks still find, and give back, what they wrap,
and name each member as ``report.json`` does.

``bench/child.py`` times vifit from outside the package by replacing
module and class attributes with span-recording wrappers, and labels each
trained state by its family tag.  A refactor under ``src/`` that renames
one of those attributes or changes a tag breaks the benchmark; these tests
catch that in the unit suite, without running a workload.
"""

from pathlib import Path

import numpy as np
import pytest

import vifit.cli as cli
import vifit.families as fam

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import child
    import spans

    return child, spans


def test_every_wrapped_attribute_exists_and_is_restored(bench_modules):
    child, spans = bench_modules
    tracer = spans.Tracer("t")
    try:
        child.install(tracer)
    except KeyError as err:
        tracer.restore()
        pytest.fail(f"the benchmark wraps an attribute vifit no longer has: {err}")
    hooked = tracer.installed()
    assert hooked
    originals = [(owner, attr, vars(owner)[attr].__wrapped__) for owner, attr in hooked]
    for owner, attr, original in originals:
        assert callable(original), attr
        assert vars(owner)[attr] is not original, attr
    tracer.restore()
    assert tracer.installed() == []
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr



def test_member_label_is_the_report_label(bench_modules):
    # Every member as the CLI builds it: its roster entry, then its initial
    # state.  The benchmark's label of that state is the label report.json
    # and tables.csv give the member.
    child, _ = bench_modules
    head = [("map", "map", {}), ("mc_dropout", "mc_dropout", {"keep_prob": 0.5})]
    tail = [("sgmm", "mixture", {"rank": 2, "components": 2})]
    roster = cli.build_roster([0, 1, 10], "naive", head=head, tail=tail)
    labels = [member.label for member in roster]
    assert labels == ["map", "mc_dropout", "mf", "sn1", "sn10", "sgmm"]
    for member in roster:
        state = fam.init_family(member.tag, 10, np.random.default_rng(0), **member.kwargs)
        assert child.member_label(state) == member.label
