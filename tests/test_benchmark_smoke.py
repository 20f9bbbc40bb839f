"""The benchmark still runs against the library.

``benchmark/`` calls the library's path and solver APIs directly.  This
builds and prepares every workload and runs one ``March`` job untraced,
checked against the benchmark's own exact references, so a library change
that breaks the benchmark fails here.
"""

from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import workloads
    return workloads


def test_workloads_build_and_march_job_checks(workloads):
    import spans

    built = {name: cls(seed=1) for name, cls in workloads.WORKLOADS.items()}
    for wl in built.values():
        wl.prepare()
    march = built["march"]
    out = march.job(spans.NullTracer(), lambda: None)
    chk = workloads.Check()
    march.verify(out, chk)
    assert chk.failures == []
    assert np.isfinite(chk.err) and chk.err > 0.0
