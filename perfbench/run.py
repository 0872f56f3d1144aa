"""The XBench benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1

A workload is one of XBench's two class families, ``data-centric``
(DC/SD + DC/MD) or ``text-centric`` (TC/SD + TC/MD), and every run
drives the whole stack on it (see README.md): the native engine in
process on both classes for a fifth of ``S``, then ``repro serve
--shards 2 --data-dir`` on the multi-document class, reads for two
fifths and reads with acknowledged updates for two fifths, then a timed
recovery of its data directory.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Every process the run
starts has ended when it exits; on error or timeout the run kills them,
prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

import common

#: per workload: the in-process classes at the paper's normal scale
#: over divisor 100, and the served class at its small scale over
#: divisor 100 (see served.Target).
WORKLOADS = {
    "data-centric": (
        (("dcsd", 675), ("dcmd", 575)),
        dict(class_key="dcmd", units=57,
             rw_reads=common.EXPERIMENT_QUERIES,
             readback="collection()/order[@id = $id]/*/*/order_status")),
    # TC/MD's Q14 selects on date_of_publication, the field an update
    # writes, so the rw rounds leave it out.
    "text-centric": (
        (("tcsd", 1045), ("tcmd", 245)),
        dict(class_key="tcmd", units=24,
             rw_reads=("Q5", "Q8", "Q12", "Q17"),
             readback="collection()/article[@id = $id]"
                      "/prolog/date_of_publication")),
}
#: hard ceiling on one run, under the 180 s a run may take.
RUN_TIMEOUT_S = 170


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S} s")


def run(args, children: common.Children, workdir) -> dict:
    """Both parts of the workload; their counts and metrics combined."""
    import inproc
    import served
    classes, target = WORKLOADS[args.workload]
    # A fifth of the run goes to the in-process rounds, which hold
    # steadier than the served sub-phases; two fifths to each of those.
    parts = [inproc.run(args, children, workdir, classes, args.seconds / 5),
             served.run(args, children, workdir, served.Target(**target),
                        2 * args.seconds / 5)]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = common.metric(
            sum(common.median(part["setup"]) for part in parts), "s")
    for part in parts:
        metrics.update(part["metrics"])
    return {"correct": all(part["correct"] for part in parts),
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_program()
    common.become_subreaper()

    children = common.Children()
    workdir = common.make_workdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        result = run(args, children, workdir)
        if not common.wait_gone(common.descendants(os.getpid()), 30.0):
            raise RuntimeError("a started process outlived its run")
    except BaseException as exc:    # timeouts and interrupts too
        signal.alarm(0)
        traceback.print_exc()
        children.kill_all()
        common.remove_workdir(workdir)
        if not isinstance(exc, Exception):
            raise
        return 1
    signal.alarm(0)
    common.remove_workdir(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
