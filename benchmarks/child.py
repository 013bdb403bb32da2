"""One benchmark process: set up, make a workload's CLI calls, check the outputs.

run.py starts this script in a fresh interpreter for every sample, as a
user starts `annihilate`.  Set-up runs from process start (the time stamp
`--spawned`, taken by run.py just before the start) to the first timed
call: interpreter start, imports and writing the workload's configs.  The
timed part is the workload's `cli.main` calls and nothing else; the
output checks and the memory reading come after it.  Outside traced runs
both spans are reported in reference seconds (clock.py): CPU seconds
scaled by the host's speed during the span, which take the host's load out
of the figure.  The raw wall seconds, less the speed sampler's own time,
are reported next to them.  The last line of stdout is
`BENCH-CHILD <json>`.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

MARKER = "BENCH-CHILD "


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--mode", choices=("timed", "setup", "traced"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args()

    sampler = None
    if args.mode != "traced":
        from clock import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
        m_start = sampler.mark()

    t_import = time.monotonic()
    import annihilate.cli as cli
    import_s = time.monotonic() - t_import

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = Path(args.workdir)
    argvs, outs = [], []
    for k, (command, cfg) in enumerate(workload.calls(args.seed, args.size)):
        cfg_path = work / f"config_{k}.yaml"
        cfg_path.write_text(json.dumps(cfg))  # JSON is YAML
        outs.append(work / f"out_{k}")
        argvs.append([command, "--config", str(cfg_path), "--out", str(outs[-1])])

    tracer = None
    if args.mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    t0, c0 = time.monotonic(), time.process_time()
    result = {"import_s": import_s}
    if sampler is None:
        result["setup_s"] = result["setup_raw_s"] = t0 - args.spawned
    else:
        m0 = sampler.mark()
        setup = sampler.span(m_start, m0, c0, t0 - args.spawned)
        result.update(setup_s=setup["ref_s"], setup_raw_s=setup["raw_s"],
                      setup_speed=setup["speed"])
    if args.mode != "setup":
        rcs = [cli.main(argv) for argv in argvs]
        t1, c1 = time.monotonic(), time.process_time()
        if sampler is None:
            result["wall_s"] = result["wall_raw_s"] = t1 - t0
        else:
            wall = sampler.span(m0, sampler.mark(), c1 - c0, t1 - t0)
            sampler.stop()
            result.update(wall_s=wall["ref_s"], wall_raw_s=wall["raw_s"],
                          wall_speed=wall["speed"], speed_samples=wall["samples"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = workload.check(outs, rcs, args.seed, args.size)
        result["err_top"] = outcome.err_top
        result["ops"] = [[op.name, op.ok, op.detail] for op in outcome.ops]
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write(Path(args.spans))
    if sampler is not None:
        sampler.stop()
    print(MARKER + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
