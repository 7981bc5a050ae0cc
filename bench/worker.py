"""One measured pass: import rumexda.cli, build its parser, then run CLI
stages one after another through ``rumexda.cli.main``.

Usage: python3 bench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``{"trace": bool, "stages": [[name, argv], ...]}``. The
pass stops at the first stage that does not return 0. RESULT_JSON gets
the set-up time, each stage's exit code, wall and CPU time, the mean of
the calibration probe run before and after the stages, the process's peak
RSS and, when tracing, the spans and counters.
"""

import json
import resource
import sys
import time
import traceback


def probe() -> float:
    """Seconds for a fixed mix of the work the stages do: small matmuls,
    interpreter loops and memory copies. Run in the measured process just
    before and just after the stages, it tells how fast the shared machine
    was at the time, so that a pass's time can be divided by it."""
    import numpy as np

    a, b = np.full((64, 16), 0.5), np.full((16, 32), 0.25)
    buf = bytearray(4 << 20)
    start = time.perf_counter()
    for _ in range(15000):
        np.maximum(a @ b, 0.0)
    sum(i * i for i in range(300000))
    for _ in range(24):
        bytes(buf)
    return time.perf_counter() - start


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    from rumexda import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    probe_before = probe()
    stages = []
    for name, argv in spec["stages"]:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
        stages.append({
            "name": name,
            "code": code,
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
        })
        if code != 0:
            break

    # read before the second probe, whose buffers must not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "probe_s": (probe_before + probe()) / 2,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result.update(tracer.result())
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
