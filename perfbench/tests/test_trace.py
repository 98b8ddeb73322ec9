"""Self times from the span tracer add up to the root span."""

import threading
import time

import pytest

from perfbench.trace import Tracer, self_times


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_the_root_on_nested_calls():
    tracer = Tracer()

    def leaf():
        _busy(0.002)

    def middle():
        _busy(0.001)
        leaf()
        leaf()
        _busy(0.001)

    def top():
        middle()
        _busy(0.002)
        leaf()

    leaf = tracer.wrap(leaf, "grape.leaf")
    middle = tracer.wrap(middle, "core.middle")
    top = tracer.wrap(top, "service.top")
    root = tracer.open("client.request", rid=7)
    top()
    tracer.close(root)

    assert {s.rid for s in tracer.spans} == {7}
    selfs = self_times(tracer.spans)
    (root_span,) = [s for s in tracer.spans if s.name == "client.request"]
    assert sum(selfs.values()) == pytest.approx(root_span.duration, rel=1e-9)
    leaves = [s for s in tracer.spans if s.name == "grape.leaf"]
    assert len(leaves) == 3
    for span in leaves:
        assert selfs[span.sid] == pytest.approx(span.duration)
    (mid,) = [s for s in tracer.spans if s.name == "core.middle"]
    assert selfs[mid.sid] == pytest.approx(
        mid.duration - sum(s.duration for s in leaves if s.parent == mid.sid))


def test_context_follows_a_request_to_another_thread():
    tracer = Tracer()
    work = tracer.wrap(lambda: _busy(0.001), "pipeline.work",
                       adopt=lambda args, kwargs: "key")
    root = tracer.open("client.request", rid=3)
    tracer.links["key"] = tracer.context()
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(root)
    (span,) = [s for s in tracer.spans if s.name == "pipeline.work"]
    assert span.rid == 3 and span.parent == root


def test_uninstall_restores_patched_functions():
    import repro.core.hyperopt as hyperopt
    import repro.core.flexible as flexible

    original = hyperopt.tune_hyperparameters
    tracer = Tracer()
    tracer.patch_function("repro.core.hyperopt", "tune_hyperparameters", "core.tune")
    assert flexible.tune_hyperparameters is not original
    assert flexible.tune_hyperparameters.__wrapped__ is original
    tracer.uninstall()
    assert flexible.tune_hyperparameters is original
    assert hyperopt.tune_hyperparameters is original


def test_worker_spans_join_the_request_that_enqueued_their_job(tmp_path):
    import json

    from perfbench.trace import merge_worker_spans

    tracer = Tracer()
    root = tracer.open("client.request", rid=5)
    dispatch = tracer.open("fleet.dispatch")
    tracer.links[("job", "j1")] = tracer.context()
    tracer.close(dispatch)
    tracer.close(root)
    (tmp_path / "123.json").write_text(json.dumps({
        "spans": [[1, None, "j1", "fleet.job", 0.0, 2.0],
                  [2, 1, "j1", "grape.optimize", 0.5, 1.5]],
        "observations": [["j1", "grape.optimize", [1, 40]]],
    }))
    assert merge_worker_spans(tracer, tmp_path) == 1
    job = next(s for s in tracer.spans if s.name == "fleet.job")
    grape = next(s for s in tracer.spans if s.name == "grape.optimize")
    assert (job.rid, job.parent) == (5, dispatch)
    assert (grape.rid, grape.parent) == (5, job.sid)
    assert tracer.observations[-1].rid == 5
