"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py MANIFEST OUT {pass,trace,setup,probe}

``pass`` imports the package, builds the workload (for ``session`` that
loads the objects it reuses), then sends the fixed request list in a closed
loop and checks every answer afterwards.  ``trace`` is the same pass under
the tracer.  ``setup`` stops once the first request could be served.
``probe`` measures hh_reach for ``cli_cyclic``.  The result is written to
OUT as JSON.

``pass`` and ``setup`` time with a speed.Speedometer: setup_s, run_s and
every latency_s are in reference seconds, and setup_wall_s and run_wall_s
are the wall times, both without the speedometer's own slices.  ``trace``
runs no speedometer; its times are wall times.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import FAILED  # noqa: E402


def main(manifest_path, out_path, mode):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    trace = None
    if mode == "trace":
        from tracer import Trace
        trace = Trace(os.path.join(SRC, "ncmotives"))
        trace.start()
    meter = Speedometer() if mode in ("pass", "setup") else None
    if meter is not None:
        meter.start()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import ncmotives.cli
    if not os.path.realpath(ncmotives.cli.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise SystemExit("ncmotives was not imported from %s" % SRC)
    if mode == "probe":
        reach, wrong = workloads.hh_reach(manifest)
        _write(out_path, {"reach": reach, "wrong": wrong})
        return
    if trace is not None:
        trace.install_counters()
    requests = workloads.build(manifest)
    t_setup = time.perf_counter()
    if mode == "setup":
        meter.stop()
        wall, ref = meter.measure(t0, t_setup)
        _write(out_path, {"setup_s": ref, "setup_wall_s": wall})
        return

    spans, results = [], []
    t_run = time.perf_counter()
    for req in requests:
        t = time.perf_counter()
        try:
            result, error = req.call(), None
        except Exception as exc:  # a stray exception is a failed answer
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        spans.append((t, time.perf_counter()))
        results.append((result, error))
    t_end = time.perf_counter()
    if trace is not None:
        trace.stop()
    if meter is not None:
        meter.stop()
        setup_wall_s, setup_s = meter.measure(t0, t_setup)
        run_wall_s, run_s = meter.measure(t_run, t_end)
        latencies = [meter.measure(a, b)[1] for a, b in spans]
    else:
        setup_s = setup_wall_s = t_setup - t0
        run_s = run_wall_s = t_end - t_run
        latencies = [b - a for a, b in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = []
    for req, (result, error), lat in zip(requests, results, latencies):
        if error is None:
            try:
                status, detail = req.check(result)
            except Exception as exc:  # an answer of the wrong shape
                status, detail = FAILED, "check: %s: %s" % (
                    type(exc).__name__, exc)
        else:
            status, detail = FAILED, error
        outcomes.append({"label": req.label, "status": status,
                         "detail": detail, "defect": req.defect,
                         "latency_s": lat})
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "run_s": run_s,
           "run_wall_s": run_wall_s, "peak_rss_mb": peak_rss_mb,
           "outcomes": outcomes}
    if trace is not None:
        out["layers"], out["spans"], out["self_s"] = trace.report()
    _write(out_path, out)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
