"""The benchmark still runs against the library.

``benchmark/`` calls the library's path, solver, oracle and CSV APIs
directly.  This builds and prepares every workload, runs one ``March`` job
and one ``Oracle`` job untraced and one ``Oracle`` job traced, each checked
against the benchmark's own exact references, and the library calls of the
``Cli`` workload in-process, so a library change that breaks the benchmark
fails here.
"""

from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK))
        import spans
        import workloads

        built = {name: cls(seed=1) for name, cls in workloads.WORKLOADS.items()}
        for wl in built.values():
            wl.prepare()
        yield workloads, spans, built


def checked(workloads, wl, out):
    chk = workloads.Check()
    wl.verify(out, chk)
    assert chk.failures == []
    assert np.isfinite(chk.err) and chk.err > 0.0


def test_workloads_build_and_march_job_checks(bench):
    workloads, spans, built = bench
    march = built["march"]
    checked(workloads, march, march.job(spans.NullTracer(), lambda: None))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_oracle_job_checks(bench, traced):
    # the traced job also times sample_realization and evolve_realization
    # history by history
    workloads, spans, built = bench
    tr = spans.Tracer() if traced else spans.NullTracer()
    oracle = built["oracle"]
    checked(workloads, oracle, oracle.job(tr, lambda: None))
    if traced:
        names = {span[0] for span in tr.spans}
        assert {"jump_mc.sample", "jump_mc.evolve"} <= names
        assert tr.counts["jump_mc.split_histories"] == workloads.MC_SPLIT_HISTORIES


def test_cli_in_process_calls(bench):
    # the library calls of the four CLI commands, which the traced cli job
    # makes in-process: predict_limit, convergence_report, the scalar
    # solvers and the CSV writers
    workloads, spans, built = bench
    tr = spans.Tracer()
    built["cli"]._in_process(tr)
    names = {span[0] for span in tr.spans}
    assert {"asymptotics.convergence_report", "scalar.piecewise_delay_solve",
            "volterra.csv"} <= names
