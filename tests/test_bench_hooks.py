"""The benchmark's layer hooks still find, and give back, what they wrap.

``bench/child.py`` times vifit from outside the package by replacing
module and class attributes with span-recording wrappers.  A refactor under
``src/`` that renames one of those attributes breaks the benchmark; this
test catches that in the unit suite, without running a workload.
"""

from pathlib import Path

import pytest

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

