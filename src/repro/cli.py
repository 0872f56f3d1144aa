"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures``   print the paper's Figures 1-4 (schema diagrams)
``suite``     run the full benchmark and print Tables 4-9
``generate``  write a database class's corpus to disk
``query``     run one workload query on one engine and print results
``path``      run an arbitrary path query via structural joins
``schema``    print a class's schema as diagram, DTD or XSD
``stats``     analyze a generated corpus (Table 2-style + fits)
``verify``    cross-check every engine against the native oracle
``workload``  list the 20 query types and their class applicability
``updates``   run the update-workload extension on one engine
``multiuser`` multi-user throughput harness
``profile``   observed benchmark run: spans, counters, latency
              percentiles and a ``BENCH_<name>.json`` artifact
``explain``   EXPLAIN ANALYZE one query: annotated operator plan
              trees (rows, calls, wall-time) per engine
``obs``       artifact tooling; ``obs diff A B`` compares two BENCH
              artifacts and gates on cold-time regressions
``chaos``     run a workload under a named fault-injection scenario
              and score availability (``BENCH_chaos.json``)
``serve``     persistent query server: warm engines across requests,
              admission control, weighted-fair tenants, graceful
              drain on SIGTERM
``load``      open/closed-loop load harness against a running server;
              ``--rate-sweep`` traces throughput-vs-P99 into
              ``BENCH_serving.json``
``trace``     reassemble NDJSON span logs (server + client) into
              cross-process trace trees: completeness, per-request
              critical paths, and the aggregate time-attribution
              table (queue vs pipe vs execute vs merge)
"""

from __future__ import annotations

import argparse
import sys

from .core.benchmark import BenchmarkConfig, CorpusCache, XBench
from .core.diagrams import render_all_figures
from .core.indexes import indexes_for
from .core.report import format_suite
from .databases import CLASSES_BY_KEY
from .engines import create
from .errors import ReproError
from .workload import ALL_QUERIES, bind_params
from .workload.queries import QUERIES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XBench: a family of XML DBMS benchmarks "
                    "(ICDE 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="print Figures 1-4")

    suite = sub.add_parser("suite", help="run Tables 4-9")
    suite.add_argument("--divisor", type=int, default=1000,
                       help="scale divisor over the paper's byte "
                            "budgets (default 1000)")
    suite.add_argument("--scales", default="small,normal,large")
    suite.add_argument("--classes", default="dcsd,dcmd,tcsd,tcmd")
    suite.add_argument("--no-indexes", action="store_true",
                       help="skip the Table 3 value indexes "
                            "(sequential-scan baseline)")
    suite.add_argument("--format", default="tables",
                       choices=["tables", "csv", "json"])
    suite.add_argument("--repeats", type=int, default=1,
                       help="executions per query cell (first run is "
                            "the cold time; extras feed warm stats)")
    suite.add_argument("--obs-out", default=None, metavar="DIR",
                       help="observe the run and write "
                            "BENCH_suite.json under DIR")
    suite.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run every engine behind the sharded "
                            "execution service with N worker "
                            "processes (0 = single-process)")
    suite.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="warm-start corpora from `repro snapshot "
                            "build` artifacts under DIR (missing or "
                            "stale snapshots fall back to generation)")
    suite.add_argument("--rpc-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-RPC timeout for the sharded service "
                            "(default: the service default)")

    generate = sub.add_parser("generate", help="write a corpus to disk")
    generate.add_argument("class_key", choices=sorted(CLASSES_BY_KEY))
    generate.add_argument("--units", type=int, default=100)
    generate.add_argument("--out", default="xbench_corpus")
    generate.add_argument("--seed", type=int, default=42)

    query = sub.add_parser("query", help="run one workload query")
    query.add_argument("qid", help="query id, e.g. Q5")
    query.add_argument("class_key", choices=sorted(CLASSES_BY_KEY))
    query.add_argument("--engine", default="native",
                       choices=["native", "xcolumn", "xcollection",
                                "sqlserver"])
    query.add_argument("--units", type=int, default=50)
    query.add_argument("--seed", type=int, default=42)
    query.add_argument("--limit", type=int, default=10,
                       help="max result items to print")

    stats = sub.add_parser("stats", help="analyze a generated corpus")
    stats.add_argument("class_key", choices=sorted(CLASSES_BY_KEY))
    stats.add_argument("--units", type=int, default=100)
    stats.add_argument("--seed", type=int, default=42)

    workload = sub.add_parser("workload",
                              help="list the 20 query types")
    workload.add_argument("--full", action="store_true",
                          help="include descriptions and per-class "
                               "XQuery text")

    schema = sub.add_parser(
        "schema", help="print a class's schema (diagram, DTD or XSD)")
    schema.add_argument("class_key", choices=sorted(CLASSES_BY_KEY))
    schema.add_argument("--format", default="diagram",
                        choices=["diagram", "dtd", "xsd"])

    verify = sub.add_parser(
        "verify", help="cross-check every engine against the native "
                       "oracle")
    verify.add_argument("class_key", nargs="?", default=None,
                        choices=sorted(CLASSES_BY_KEY))
    verify.add_argument("--divisor", type=int, default=2000)
    verify.add_argument("--scale", default="small")
    verify.add_argument("--replicas", type=int, default=0,
                        metavar="N",
                        help="read replicas per shard on the sharded "
                             "row; its reads then run under eventual "
                             "consistency, verifying journal-shipped "
                             "replica state against the oracle")
    verify.add_argument("--shards", type=int, default=0, metavar="N",
                        help="also verify the native engine behind "
                             "the sharded execution service with N "
                             "workers; sharded mismatches exit "
                             "non-zero")
    verify.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="warm-start corpora from snapshots "
                             "under DIR")
    verify.add_argument("--rpc-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-RPC timeout for the sharded row")

    updates = sub.add_parser("updates",
                             help="run the update-workload extension")
    updates.add_argument("class_key", choices=["dcmd", "tcmd"])
    updates.add_argument("--engine", default="native",
                         choices=["native", "xcolumn", "xcollection",
                                  "sqlserver"])
    updates.add_argument("--units", type=int, default=60)
    updates.add_argument("--count", type=int, default=30)
    updates.add_argument("--shards", type=int, default=0, metavar="N",
                         help="route the update stream through the "
                              "sharded execution service")

    path = sub.add_parser(
        "path", help="run an arbitrary path query via structural "
                     "joins (edge store)")
    path.add_argument("class_key", choices=sorted(CLASSES_BY_KEY))
    path.add_argument("expression",
                      help="pure path query, e.g. "
                           "\"/dictionary/entry[hw = 'word_1']/pos\"")
    path.add_argument("--units", type=int, default=50)
    path.add_argument("--limit", type=int, default=10)

    multiuser = sub.add_parser(
        "multiuser", help="multi-user throughput (extension)")
    multiuser.add_argument("class_key",
                           choices=sorted(CLASSES_BY_KEY))
    multiuser.add_argument("--engine", default="native",
                           choices=["native", "xcolumn", "xcollection",
                                    "sqlserver"])
    multiuser.add_argument("--streams", type=int, default=4)
    multiuser.add_argument("--queries", type=int, default=20)
    multiuser.add_argument("--units", type=int, default=60)
    multiuser.add_argument("--mode", default="threads",
                           choices=["threads", "interleaved"])
    multiuser.add_argument("--obs-out", default=None, metavar="DIR",
                           help="observe the run and write "
                                "BENCH_multiuser.json under DIR")
    multiuser.add_argument("--shards", type=int, default=0,
                           metavar="N",
                           help="run the streams against the sharded "
                                "execution service with N worker "
                                "processes (real parallelism instead "
                                "of GIL interleaving)")
    multiuser.add_argument("--rpc-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-RPC timeout for the sharded "
                                "service")
    multiuser.add_argument("--replicas", type=int, default=0,
                           metavar="N",
                           help="read replicas per shard (requires "
                                "--shards >= 2); the report then "
                                "includes a per-tier staleness table")
    multiuser.add_argument("--consistency", default="strong",
                           choices=["strong", "read_your_writes",
                                    "bounded_staleness", "eventual"],
                           help="default read-consistency tier for "
                                "replicated reads")
    multiuser.add_argument("--deadline", type=float, default=None,
                           metavar="SECONDS",
                           help="per-query deadline; over-budget "
                                "queries are cancelled cooperatively "
                                "and counted as QueryTimeout "
                                "incidents")
    multiuser.add_argument("--seed", type=int, default=17,
                           help="stream-plan seed (same seed = same "
                                "per-stream query/params schedule)")

    profile = sub.add_parser(
        "profile", help="observed benchmark run (obs subsystem): "
                        "phase spans, counters, latency percentiles "
                        "and a BENCH_<name>.json artifact")
    profile.add_argument("--divisor", type=int, default=2000)
    profile.add_argument("--scales", default="small")
    profile.add_argument("--classes", default="dcsd,tcsd")
    profile.add_argument("--engines", default=None,
                         help="comma list of engine keys "
                              "(native,xcolumn,xcollection,sqlserver; "
                              "default: all)")
    profile.add_argument("--queries", default=None,
                         help="comma list of query ids "
                              "(default: the experiment five)")
    profile.add_argument("--repeats", type=int, default=3,
                         help="executions per query cell (cold + "
                              "warm; feeds the latency histograms)")
    profile.add_argument("--no-indexes", action="store_true",
                         help="skip Table 3 index creation (for "
                              "indexed-vs-unindexed A/B runs)")
    profile.add_argument("--name", default="profile",
                         help="artifact name (BENCH_<name>.json)")
    profile.add_argument("--obs-out", default=".", metavar="DIR",
                         help="directory for the BENCH artifact")
    profile.add_argument("--spans", default=None, metavar="PATH",
                         help="also write the NDJSON span log here")
    profile.add_argument("--explain", action="store_true",
                         help="attach the plan profiler: per-cell "
                              "operator plan trees land in the "
                              "artifact (schema xbench-obs/2)")
    profile.add_argument("--format", default="text",
                         choices=["text", "json"],
                         help="text report (default) or the artifact "
                              "JSON on stdout")
    profile.add_argument("--shards", type=int, default=0, metavar="N",
                         help="run every engine behind the sharded "
                              "execution service with N worker "
                              "processes")
    profile.add_argument("--snapshot-dir", default=None, metavar="DIR",
                         help="warm-start corpora from snapshots "
                              "under DIR")
    profile.add_argument("--rpc-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-RPC timeout for the sharded "
                              "service (default: the service default)")
    profile.add_argument("--sample-resources", action="store_true",
                         help="sample CPU/RSS of this process during "
                              "the run (pilot-calibrated interval) "
                              "and embed the summary in the artifact")

    explain = sub.add_parser(
        "explain", help="EXPLAIN ANALYZE one workload query: run it "
                        "and print the annotated operator plan tree")
    explain.add_argument("class_key",
                         help="database class (dcsd/dcmd/tcsd/tcmd; "
                              "dc_sd-style spellings accepted)")
    explain.add_argument("qid", help="query id, e.g. Q5")
    explain.add_argument("--engine", action="append", default=None,
                         metavar="KEY",
                         help="engine key (repeatable; "
                              "native,xcolumn,xcollection,sqlserver,"
                              "edge; default: native)")
    explain.add_argument("--units", type=int, default=50)
    explain.add_argument("--seed", type=int, default=42)
    explain.add_argument("--format", default="text",
                         choices=["text", "json"])

    obs = sub.add_parser(
        "obs", help="BENCH artifact tooling (cross-run regression "
                    "diffing)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two BENCH_*.json artifacts; non-zero "
                     "exit past the regression threshold")
    obs_diff.add_argument("artifact_a", help="baseline artifact")
    obs_diff.add_argument("artifact_b", help="candidate artifact")
    obs_diff.add_argument("--threshold", type=float, default=None,
                          metavar="FRACTION",
                          help="cold-time regression threshold "
                               "(default 0.25 = +25%%)")
    obs_diff.add_argument("--min-ms", type=float, default=None,
                          metavar="MS",
                          help="noise floor: cells faster than this in "
                               "both runs never gate (default 1 ms)")
    obs_diff.add_argument("--normalize-shards", action="store_true",
                          help="fold '<system> xN' sharded rows onto "
                               "'<system>' so a shards-on run pairs "
                               "with a shards-off baseline")
    obs_diff.add_argument("--format", default="text",
                          choices=["text", "json"])
    obs_diff.add_argument("--verbose", action="store_true",
                          help="list unchanged cells too")

    from .faults.scenarios import SCENARIOS
    chaos = sub.add_parser(
        "chaos", help="run a workload under a named fault-injection "
                      "scenario and score availability")
    chaos.add_argument("--scenario", required=True,
                       choices=sorted(SCENARIOS),
                       help="named fault scenario")
    chaos.add_argument("--class", dest="class_key", default="dcmd",
                       choices=sorted(CLASSES_BY_KEY))
    chaos.add_argument("--engine", default="native",
                       choices=["native", "xcolumn", "xcollection",
                                "sqlserver"])
    chaos.add_argument("--units", type=int, default=24)
    chaos.add_argument("--shards", type=int, default=3)
    chaos.add_argument("--queries", type=int, default=40)
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan + query-mix seed (same seed = "
                            "same fault sequence and scorecard)")
    chaos.add_argument("--retries", type=int, default=2)
    chaos.add_argument("--degraded", default="partial",
                       choices=["fail", "partial"],
                       help="shard-failure policy during the run")
    chaos.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-query deadline (overrides the "
                            "scenario's recommendation)")
    chaos.add_argument("--rpc-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-RPC timeout (overrides the "
                            "scenario's recommendation)")
    chaos.add_argument("--replicas", type=int, default=None,
                       metavar="N",
                       help="read replicas per shard (default: the "
                            "scenario's recommendation)")
    chaos.add_argument("--consistency", default=None,
                       metavar="TIER",
                       help="read tier: strong, eventual, "
                            "read_your_writes, bounded_staleness:K "
                            "(default: the scenario's recommendation)")
    chaos.add_argument("--write-every", type=int, default=None,
                       metavar="N",
                       help="interleave one acknowledged write every "
                            "N operations (default: the scenario's "
                            "recommendation; 0 disables)")
    chaos.add_argument("--data-dir", default=None, metavar="DIR",
                       help="durable-mode data directory (WAL + "
                            "checkpoints); default for durable "
                            "scenarios is a private temp dir")
    chaos.add_argument("--restarts", type=int, default=None,
                       metavar="N",
                       help="kill -9 + cold-start recovery cycles "
                            "spread through the stream (default: the "
                            "scenario's recommendation)")
    chaos.add_argument("--max-lost-writes", type=int, default=None,
                       metavar="N",
                       help="fail (exit 1) when more than N "
                            "acknowledged writes are lost (the "
                            "replication CI gate uses 0)")
    chaos.add_argument("--min-availability", type=float, default=None,
                       metavar="PCT",
                       help="exit non-zero when availability falls "
                            "below PCT (unhandled exceptions always "
                            "fail the run)")
    chaos.add_argument("--name", default="chaos",
                       help="artifact name (BENCH_<name>.json)")
    chaos.add_argument("--obs-out", default=None, metavar="DIR",
                       help="write the BENCH_<name>.json scorecard "
                            "under DIR")
    chaos.add_argument("--format", default="text",
                       choices=["text", "json"])

    serve = sub.add_parser(
        "serve", help="persistent query server: warm engines, "
                      "admission control, weighted-fair tenants, "
                      "graceful drain on SIGTERM")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7497,
                       help="listen port (0 = ephemeral; the bound "
                            "port is announced on stdout)")
    serve.add_argument("--engine", default="native",
                       choices=["native", "xcolumn", "xcollection",
                                "sqlserver"],
                       help="default session engine (hello may "
                            "override)")
    serve.add_argument("--class", dest="class_key", default="dcmd",
                       choices=sorted(CLASSES_BY_KEY))
    serve.add_argument("--units", type=int, default=24)
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve the default spec behind the "
                            "sharded execution service")
    serve.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="read replicas per shard of the default "
                            "spec (requires --shards >= 2); replica "
                            "sessions honor per-request consistency "
                            "tiers")
    serve.add_argument("--queue", type=int, default=64,
                       metavar="DEPTH",
                       help="bounded request queue; beyond this, "
                            "requests are shed with ServerOverloaded")
    serve.add_argument("--executors", type=int, default=1,
                       metavar="N", help="concurrent query slots")
    serve.add_argument("--tenant-weight", action="append",
                       default=None, metavar="NAME=W",
                       help="fair-scheduling weight (repeatable; "
                            "unlisted tenants get 1.0)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="deadline applied to requests that do "
                            "not carry one")
    serve.add_argument("--rpc-timeout", type=float, default=None,
                       metavar="SECONDS")
    serve.add_argument("--degraded", default="partial",
                       choices=["fail", "partial"])
    serve.add_argument("--throttle", type=float, default=0.0,
                       metavar="SECONDS",
                       help="artificial per-query service-time floor "
                            "(gives tiny corpora a realistic "
                            "saturation knee in load tests)")
    serve.add_argument("--no-preload", action="store_true",
                       help="skip loading the default engine before "
                            "accepting connections")
    serve.add_argument("--trace-spans", default=None, metavar="PATH",
                       help="record distributed-trace spans and write "
                            "them as NDJSON here on drain (feed the "
                            "log to `repro trace`)")
    serve.add_argument("--no-resource-sampling", action="store_true",
                       help="disable the CPU/RSS sampler over the "
                            "server and its shard workers")
    serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="cold engine loads mmap pre-encoded "
                            "corpora from snapshots under DIR "
                            "instead of generating + parsing")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="durable mode: sharded specs journal "
                            "every write under DIR and a restart "
                            "against the same DIR recovers to the "
                            "exact committed sequence (kill -9 safe "
                            "with --fsync always)")
    serve.add_argument("--fsync", default="batch",
                       choices=["always", "batch", "off"],
                       help="WAL fsync policy for --data-dir specs: "
                            "always = fsync before every ack, batch "
                            "= fsync at checkpoints/rotation, off = "
                            "leave it to the OS")
    serve.add_argument("--checkpoint-interval", type=float,
                       default=0.0, metavar="SECONDS",
                       help="background checkpoint + WAL compaction "
                            "period for --data-dir specs (0 = only "
                            "the load-time checkpoint)")

    snapshot = sub.add_parser(
        "snapshot", help="build/inspect pre-encoded corpus snapshots "
                         "(mmap-loadable warm starts)")
    snap_sub = snapshot.add_subparsers(dest="snapshot_command",
                                       required=True)
    snap_build = snap_sub.add_parser(
        "build", help="generate a corpus and write its snapshot")
    snap_build.add_argument("class_key", nargs="?", default="all",
                            choices=sorted(CLASSES_BY_KEY) + ["all"],
                            help="one class, or 'all' (default)")
    snap_build.add_argument("--units", type=int, default=None,
                            help="explicit unit count (default: "
                                 "derive from --scale/--divisor, "
                                 "matching what suite/verify load)")
    snap_build.add_argument("--scale", default="small",
                            choices=["small", "normal", "large"])
    snap_build.add_argument("--divisor", type=int, default=1000,
                            help="paper-budget divisor used to derive "
                                 "units when --units is not given")
    snap_build.add_argument("--seed", type=int, default=42)
    snap_build.add_argument("--out", default="snapshots",
                            metavar="DIR")
    snap_inspect = snap_sub.add_parser(
        "inspect", help="print a snapshot's directory and totals")
    snap_inspect.add_argument("path", help="snapshot file (.rxs)")
    snap_inspect.add_argument("--limit", type=int, default=10,
                              metavar="N",
                              help="per-document rows to print "
                                   "(0 = all)")

    load = sub.add_parser(
        "load", help="open/closed-loop load harness against a "
                     "running `repro serve`")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=7497)
    load.add_argument("--engine", default="native",
                      choices=["native", "xcolumn", "xcollection",
                               "sqlserver"])
    load.add_argument("--class", dest="class_key", default="dcmd",
                      choices=sorted(CLASSES_BY_KEY))
    load.add_argument("--units", type=int, default=24,
                      help="must match the corpus served for the "
                           "session spec")
    load.add_argument("--shards", type=int, default=0)
    load.add_argument("--replicas", type=int, default=0, metavar="N",
                      help="read replicas per shard of the session "
                           "spec (requires --shards >= 2)")
    load.add_argument("--consistency", default="strong",
                      metavar="TIER",
                      help="session read tier: strong, eventual, "
                           "read_your_writes, bounded_staleness:K")
    load.add_argument("--mode", default="closed",
                      choices=["closed", "open"],
                      help="closed: N sessions, next query on "
                           "completion; open: seeded Poisson "
                           "arrivals at --rate")
    load.add_argument("--rate", type=float, default=20.0,
                      metavar="QPS", help="open-loop arrival rate")
    load.add_argument("--rate-sweep", default=None, metavar="R1,R2,..",
                      help="open-loop trials across these rates; "
                           "traces the throughput-vs-P99 curve")
    load.add_argument("--streams", type=int, default=4,
                      help="closed-loop sessions / open-loop "
                           "in-flight worker cap")
    load.add_argument("--think", type=float, default=0.0,
                      metavar="SECONDS",
                      help="closed-loop think time between queries")
    load.add_argument("--warmup", type=float, default=1.0,
                      metavar="SECONDS",
                      help="untimed traffic before the measurement "
                           "window")
    load.add_argument("--measure", type=float, default=5.0,
                      metavar="SECONDS", help="measurement window")
    load.add_argument("--seed", type=int, default=17,
                      help="arrival-schedule + query-mix seed")
    load.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="per-request deadline sent to the server")
    load.add_argument("--update-every", type=int, default=0,
                      metavar="N",
                      help="interleave one acknowledged write every N "
                           "requests (0 = reads only); acked writes "
                           "are reported run-wide for the "
                           "crash-recovery lost-write gate")
    load.add_argument("--tenant", action="append", default=None,
                      metavar="NAME=SHARE",
                      help="traffic mix tenant (repeatable; default "
                           "one tenant 'default')")
    load.add_argument("--queries", default=None,
                      help="comma list of query ids (default: the "
                           "experiment five)")
    load.add_argument("--name", default="serving",
                      help="artifact name (BENCH_<name>.json)")
    load.add_argument("--obs-out", default=None, metavar="DIR",
                      help="write the BENCH_<name>.json scorecard "
                           "under DIR")
    load.add_argument("--format", default="text",
                      choices=["text", "json"])
    load.add_argument("--trace-spans", default=None, metavar="PATH",
                      help="record client-side request spans and "
                           "write them as NDJSON here (pair with the "
                           "server's log in `repro trace` for the "
                           "client-vs-server decomposition)")

    trace = sub.add_parser(
        "trace", help="reassemble NDJSON span logs into cross-process "
                      "trace trees and print the time-attribution "
                      "table")
    trace.add_argument("logs", nargs="+", metavar="SPANS.ndjson",
                       help="span logs to merge (server and/or "
                            "client; order does not matter)")
    trace.add_argument("--format", default="text",
                       choices=["text", "json"])
    trace.add_argument("--limit", type=int, default=3, metavar="N",
                       help="trace trees to print in text mode "
                            "(slowest first; default 3)")
    trace.add_argument("--trace", dest="trace_id", default=None,
                       metavar="ID",
                       help="print only the tree(s) of this trace id")
    trace.add_argument("--min-completeness", type=float, default=None,
                       metavar="PCT",
                       help="exit non-zero when fewer than PCT%% of "
                            "traces reassemble into complete trees")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="also write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into head/less that closed early: normal exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figures":
        print(render_all_figures())
    elif args.command == "suite":
        return _cmd_suite(args)
    elif args.command == "generate":
        return _cmd_generate(args)
    elif args.command == "query":
        return _cmd_query(args)
    elif args.command == "stats":
        return _cmd_stats(args)
    elif args.command == "workload":
        return _cmd_workload(args)
    elif args.command == "updates":
        return _cmd_updates(args)
    elif args.command == "verify":
        return _cmd_verify(args)
    elif args.command == "schema":
        return _cmd_schema(args)
    elif args.command == "multiuser":
        return _cmd_multiuser(args)
    elif args.command == "path":
        return _cmd_path(args)
    elif args.command == "profile":
        return _cmd_profile(args)
    elif args.command == "explain":
        return _cmd_explain(args)
    elif args.command == "obs":
        return _cmd_obs(args)
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "snapshot":
        return _cmd_snapshot(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "load":
        return _cmd_load(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    from .xml.serializer import serialize
    db_class = CLASSES_BY_KEY[args.class_key]
    documents = db_class.generate(args.units, seed=42)
    with create("edge") as engine:
        engine.timed_load(db_class,
                          [(d.name, serialize(d)) for d in documents])
        outcome = engine.adhoc(args.expression)
    values = outcome.values
    print(f"{len(values)} item(s) in {outcome.seconds * 1000:.2f} ms "
          f"(structural joins over the interval table)")
    for value in values[:args.limit]:
        preview = value if len(value) <= 100 else value[:97] + "..."
        print(f"  {preview}")
    if len(values) > args.limit:
        print(f"  ... {len(values) - args.limit} more")
    return 0


def _cmd_multiuser(args: argparse.Namespace) -> int:
    from .core.multiuser import run_multi_user
    from .obs import Recorder, bench_summary, observing, \
        write_bench_artifact
    with _load_engine(args.engine, args.class_key, args.units, 42,
                      shards=args.shards,
                      rpc_timeout=args.rpc_timeout,
                      replicas=args.replicas,
                      consistency=args.consistency) as engine:
        recorder = Recorder(name="multiuser") if args.obs_out else None
        if recorder is not None:
            with observing(recorder):
                result = run_multi_user(
                    engine, args.class_key, args.units,
                    streams=args.streams,
                    queries_per_stream=args.queries,
                    mode=args.mode, seed=args.seed,
                    deadline_seconds=args.deadline)
        else:
            result = run_multi_user(engine, args.class_key, args.units,
                                    streams=args.streams,
                                    queries_per_stream=args.queries,
                                    mode=args.mode, seed=args.seed,
                                    deadline_seconds=args.deadline)
        print(result.summary())
        if recorder is not None:
            summary = bench_summary(
                "multiuser", recorder=recorder,
                config={"engine": args.engine, "class": args.class_key,
                        "streams": args.streams,
                        "queries": args.queries,
                        "units": args.units, "mode": args.mode,
                        "seed": args.seed, "shards": args.shards,
                        "replicas": args.replicas,
                        "consistency": args.consistency},
                extra={"multiuser": result.record()})
            path = write_bench_artifact(summary, args.obs_out)
            print(f"wrote {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    from .obs import bench_summary, format_profile, write_bench_artifact, \
        write_ndjson
    config = BenchmarkConfig(
        scale_divisor=args.divisor,
        scale_names=tuple(args.scales.split(",")),
        class_keys=tuple(args.classes.split(",")),
        engine_keys=(tuple(args.engines.split(","))
                     if args.engines else None),
        repeats=args.repeats,
        with_indexes=not args.no_indexes,
        observe=True,
        explain=args.explain,
        shards=args.shards,
        rpc_timeout=args.rpc_timeout,
        snapshot_dir=args.snapshot_dir)
    if args.queries:
        config.query_ids = tuple(qid.upper()
                                 for qid in args.queries.split(","))
    if not all(_query_defined(qid, class_key)
               for class_key in config.class_keys
               if class_key in CLASSES_BY_KEY
               for qid in config.query_ids):
        return 1
    bench = XBench(config)
    sampler = None
    if args.sample_resources:
        import os
        from .obs import ResourceSampler
        sampler = ResourceSampler([os.getpid()])
        sampler.start()
    try:
        suite = bench.run_suite()
    finally:
        if sampler is not None:
            sampler.stop()
    recorder = bench.recorder
    summary = bench_summary(args.name, suite=suite, recorder=recorder,
                            config=config.record())
    if sampler is not None:
        summary["resources"] = sampler.summary()
    json_mode = args.format == "json"
    if json_mode:
        # The artifact document itself goes to stdout (pipeable);
        # progress chatter moves to stderr.
        print(json.dumps(summary, indent=2))
    else:
        print(format_profile(recorder, title=args.name))
    path = write_bench_artifact(summary, args.obs_out)
    print(("" if json_mode else "\n") + f"wrote {path}",
          file=sys.stderr if json_mode else sys.stdout)
    if args.spans:
        spans_path = write_ndjson(recorder.spans, args.spans)
        print(f"wrote {spans_path}",
              file=sys.stderr if json_mode else sys.stdout)
    return 0


def _query_defined(qid: str, class_key: str) -> bool:
    """Whether workload query ``qid`` has a text for ``class_key``;
    prints the CLI's error line when it has not."""
    query = QUERIES_BY_ID.get(qid)
    if query is not None and query.applies_to(class_key):
        return True
    print(f"error: {qid} is not defined for {class_key}", file=sys.stderr)
    return False


def _normalize_class_key(raw: str) -> str:
    """Accept ``dc_sd``/``DC-SD``-style spellings for class keys."""
    return raw.lower().replace("_", "").replace("-", "")


def _make_engine(engine_key: str):
    """One engine instance by key (the registry factory, which also
    covers the edge store)."""
    return create(engine_key)


def _cmd_explain(args: argparse.Namespace) -> int:
    import json
    from .errors import UnsupportedConfiguration, UnsupportedQuery
    from .obs import PlanProfiler, Recorder, observing, render_plan
    from .xml.serializer import serialize

    class_key = _normalize_class_key(args.class_key)
    if class_key not in CLASSES_BY_KEY:
        print(f"error: unknown database class {args.class_key!r} "
              f"(choose from {', '.join(sorted(CLASSES_BY_KEY))})",
              file=sys.stderr)
        return 1
    qid = args.qid.upper()
    if not _query_defined(qid, class_key):
        return 1

    db_class = CLASSES_BY_KEY[class_key]
    documents = db_class.generate(args.units, seed=args.seed)
    texts = [(d.name, serialize(d)) for d in documents]
    engine_keys = args.engine or ["native"]

    sections: list[dict] = []
    for engine_key in engine_keys:
        with _make_engine(engine_key) as engine:
            section: dict = {"engine": engine_key,
                             "system": engine.row_label, "qid": qid,
                             "class": class_key}
            try:
                engine.check_supported(db_class, "small")
                engine.timed_load(db_class, texts)
                engine.create_indexes(list(indexes_for(class_key)))
                params = bind_params(qid, class_key, args.units)
                recorder = Recorder(name="explain",
                                    plan=PlanProfiler())
                with observing(recorder):
                    outcome = engine.timed_execute(qid, params)
            except (UnsupportedConfiguration, UnsupportedQuery) as exc:
                section["unsupported"] = str(exc)
                sections.append(section)
                continue
            section["seconds"] = outcome.seconds
            section["rows"] = len(outcome.values)
            section["params"] = dict(params)
            section["plans"] = recorder.plan.tree_records()
            section["trees"] = recorder.plan.trees()
            sections.append(section)

    if args.format == "json":
        payload = [{key: value for key, value in section.items()
                    if key != "trees"} for section in sections]
        print(json.dumps(payload, indent=2))
    else:
        for section in sections:
            header = (f"== {section['qid']} on {section['class']} via "
                      f"{section['system']} ({section['engine']}) ==")
            print(header)
            if "unsupported" in section:
                print(f"  unsupported: {section['unsupported']}\n")
                continue
            print(f"  {section['rows']} row(s) in "
                  f"{section['seconds'] * 1000:.2f} ms "
                  f"(params {section['params']})")
            for tree in section["trees"]:
                print(render_plan(tree))
            print()
    return 0 if any("unsupported" not in section
                    for section in sections) else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json
    from .obs import diff_paths
    from .obs.diff import DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD
    if args.obs_command != "diff":      # pragma: no cover - argparse gates
        return 1
    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    min_seconds = (args.min_ms / 1000.0 if args.min_ms is not None
                   else DEFAULT_MIN_SECONDS)
    try:
        report = diff_paths(args.artifact_a, args.artifact_b,
                            threshold=threshold,
                            min_seconds=min_seconds,
                            normalize_shards=args.normalize_shards)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_record(), indent=2))
    else:
        print(report.format_text(verbose=args.verbose))
    return report.exit_code()


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from .faults import run_chaos
    from .obs import Recorder, bench_summary, write_bench_artifact
    recorder = Recorder(name=args.name)
    result = run_chaos(args.scenario, class_key=args.class_key,
                       engine_key=args.engine, units=args.units,
                       shards=args.shards, queries=args.queries,
                       seed=args.seed, retries=args.retries,
                       degraded=args.degraded,
                       rpc_timeout=args.rpc_timeout,
                       deadline_seconds=args.deadline,
                       replicas=args.replicas,
                       consistency=args.consistency,
                       write_every=args.write_every,
                       data_dir=args.data_dir,
                       restarts=args.restarts,
                       recorder=recorder)
    if args.format == "json":
        print(json.dumps(result.record(), indent=2))
    else:
        print(result.summary())
    if args.obs_out is not None:
        summary = bench_summary(
            args.name, recorder=recorder,
            config={"scenario": args.scenario, "seed": args.seed,
                    "engine": args.engine, "class": args.class_key,
                    "units": args.units, "shards": args.shards,
                    "queries": args.queries,
                    "retries": args.retries,
                    "degraded": args.degraded,
                    "deadline": args.deadline,
                    "rpc_timeout": args.rpc_timeout,
                    "replicas": result.replicas,
                    "consistency": result.consistency},
            extra={"chaos": result.record()})
        path = write_bench_artifact(summary, args.obs_out)
        print(f"wrote {path}")
    if result.unhandled:
        print(f"error: {result.unhandled} unhandled exception(s) "
              "escaped the resilience layer", file=sys.stderr)
        return 1
    if (args.min_availability is not None
            and result.availability_pct < args.min_availability):
        print(f"error: availability {result.availability_pct:.2f}% "
              f"below the required {args.min_availability:.2f}%",
              file=sys.stderr)
        return 1
    if (args.max_lost_writes is not None
            and result.lost_writes > args.max_lost_writes):
        print(f"error: {result.lost_writes} acknowledged write(s) "
              f"lost (at most {args.max_lost_writes} allowed)",
              file=sys.stderr)
        return 1
    return 0


def _parse_pairs(items: list[str] | None, flag: str) -> dict:
    """Parse repeated ``NAME=NUMBER`` flags into a dict."""
    pairs: dict[str, float] = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ReproError(
                f"{flag} expects NAME=NUMBER, got {item!r}")
        try:
            pairs[name] = float(value)
        except ValueError:
            raise ReproError(
                f"{flag} expects NAME=NUMBER, got {item!r}") from None
    return pairs


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from .server import QueryServer, ServerConfig
    config = ServerConfig(
        host=args.host, port=args.port, engine=args.engine,
        class_key=args.class_key, units=args.units,
        shards=args.shards, replicas=args.replicas,
        max_queue=args.queue,
        executors=args.executors,
        tenant_weights=_parse_pairs(args.tenant_weight,
                                    "--tenant-weight"),
        default_deadline=args.deadline,
        rpc_timeout=args.rpc_timeout, degraded=args.degraded,
        preload=not args.no_preload,
        throttle_seconds=args.throttle,
        trace=args.trace_spans is not None,
        trace_spans=args.trace_spans,
        sample_resources=not args.no_resource_sampling,
        snapshot_dir=args.snapshot_dir,
        data_dir=args.data_dir, fsync=args.fsync,
        checkpoint_interval=args.checkpoint_interval)
    return asyncio.run(QueryServer(config).run())


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .core.corpus_io import Snapshot, snapshot_filename, \
        write_snapshot
    if args.snapshot_command == "build":
        import pathlib
        from .databases import SCALES_BY_NAME
        class_keys = (sorted(CLASSES_BY_KEY)
                      if args.class_key == "all" else [args.class_key])
        out = pathlib.Path(args.out)
        for class_key in class_keys:
            db_class = CLASSES_BY_KEY[class_key]
            units = args.units
            if units is None:
                budget = SCALES_BY_NAME[args.scale].budget(args.divisor)
                units = db_class.units_for_budget(budget,
                                                  seed=args.seed)
            documents = db_class.generate(units, seed=args.seed)
            path = out / snapshot_filename(class_key, units)
            meta = write_snapshot(path, documents,
                                  meta={"class": class_key,
                                        "units": units,
                                        "seed": args.seed})
            print(f"wrote {path}: {meta['documents']} document(s), "
                  f"{meta['payload_bytes'] / 1024:.0f} KB encoded")
        return 0
    # inspect
    with Snapshot.open(args.path) as snapshot:
        meta = snapshot.meta
        entries = snapshot.entries
        nodes = sum(entry["nodes"] for entry in entries)
        interns = sum(entry["interns"] for entry in entries)
        print(f"{args.path}: {meta.get('format')} "
              f"class={meta.get('class')} units={meta.get('units')} "
              f"seed={meta.get('seed')}")
        print(f"  {len(entries)} document(s), {nodes} node(s), "
              f"{interns} interned name(s), "
              f"{meta.get('payload_bytes', 0)} encoded byte(s)")
        shown = entries if args.limit == 0 else entries[:args.limit]
        for entry in shown:
            print(f"  {entry['name']}: {entry['nodes']} node(s), "
                  f"{entry['interns']} intern(s), "
                  f"{entry['length']} byte(s) @ {entry['offset']}")
        if len(entries) > len(shown):
            print(f"  ... {len(entries) - len(shown)} more "
                  f"(--limit 0 for all)")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json
    from .loadgen import (
        LoadConfig,
        run_rate_sweep,
        run_trial,
        sweep_curve,
    )
    from .obs import Recorder, bench_summary, observing, \
        write_bench_artifact
    tenants = tuple(_parse_pairs(args.tenant, "--tenant").items()) \
        or (("default", 1.0),)
    query_ids = (tuple(qid.upper() for qid in args.queries.split(","))
                 if args.queries else None)
    config = LoadConfig(
        host=args.host, port=args.port, engine=args.engine,
        class_key=args.class_key, units=args.units,
        shards=args.shards, replicas=args.replicas,
        consistency=args.consistency,
        mode=args.mode, rate=args.rate,
        streams=args.streams, think_seconds=args.think,
        warmup_seconds=args.warmup, measure_seconds=args.measure,
        seed=args.seed, deadline=args.deadline,
        update_every=args.update_every, tenants=tenants)
    if query_ids:
        config.query_ids = query_ids
    import contextlib
    observed = args.obs_out is not None or args.trace_spans is not None
    recorder = Recorder(name=args.name) if observed else None
    scope = (observing(recorder) if recorder is not None
             else contextlib.nullcontext())
    with scope:
        if args.rate_sweep:
            rates = [float(rate)
                     for rate in args.rate_sweep.split(",")]
            results = run_rate_sweep(config, rates)
            curve = sweep_curve(results)
            record = {"sweep": [trial.record() for trial in results],
                      "curve": curve}
            errors = sum(trial.errors for trial in results)
            if args.format == "json":
                print(json.dumps(record, indent=2))
            else:
                for trial in results:
                    print(trial.summary())
                print("\nrate sweep (throughput vs tail latency):")
                print(f"  {'rate':>8} {'ok/s':>8} {'p50 ms':>9} "
                      f"{'p95 ms':>9} {'p99 ms':>9} {'rej':>5} "
                      f"{'t/o':>5} {'ok %':>6}")
                for point in curve:
                    print(f"  {point['target_rate']:>8g} "
                          f"{point['throughput_qps']:>8.1f} "
                          f"{point['p50_ms']:>9.2f} "
                          f"{point['p95_ms']:>9.2f} "
                          f"{point['p99_ms']:>9.2f} "
                          f"{point['rejected']:>5} "
                          f"{point['timeouts']:>5} "
                          f"{point['success_pct']:>6.1f}")
        else:
            result = run_trial(config)
            record = result.record()
            errors = result.errors
            if args.format == "json":
                print(json.dumps(record, indent=2))
            else:
                print(result.summary())
    if args.trace_spans is not None and recorder is not None:
        from .obs import trace_records, write_ndjson
        spans_path = write_ndjson(trace_records(recorder),
                                  args.trace_spans)
        print(f"wrote {spans_path}")
    if args.obs_out is not None:
        # The server's live telemetry (CPU/RSS sampler, engine cache,
        # admission state) rides along in the artifact so one
        # BENCH_serving.json holds both sides of the run.
        server_stats = None
        try:
            from .loadgen import ServingClient
            with ServingClient(args.host, args.port) as stats_client:
                server_stats = stats_client.stats()
        except (OSError, ReproError):
            pass
        summary = bench_summary(
            args.name, recorder=recorder,
            config={"host": args.host, "port": args.port,
                    "engine": args.engine, "class": args.class_key,
                    "units": args.units, "shards": args.shards,
                    "replicas": args.replicas,
                    "consistency": args.consistency,
                    "mode": ("open" if args.rate_sweep
                             else args.mode),
                    "rate": args.rate, "rate_sweep": args.rate_sweep,
                    "streams": args.streams, "think": args.think,
                    "warmup": args.warmup, "measure": args.measure,
                    "seed": args.seed, "deadline": args.deadline,
                    "tenants": dict(tenants)},
            extra={"serving": record,
                   **({"server_stats": server_stats}
                      if server_stats is not None else {})})
        path = write_bench_artifact(summary, args.obs_out)
        print(f"wrote {path}")
    if errors:
        print(f"error: {errors} request(s) failed with unexpected "
              "errors", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import pathlib
    from .obs.trace import (
        assemble,
        attribution,
        attribution_table,
        completeness,
        format_attribution,
        render_tree,
    )
    records: list[dict] = []
    for log in args.logs:
        path = pathlib.Path(log)
        if not path.exists():
            print(f"error: no span log at {log}", file=sys.stderr)
            return 2
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                print(f"error: {log}: not NDJSON", file=sys.stderr)
                return 2
            if isinstance(record, dict):
                records.append(record)

    trees = assemble(records)
    if args.trace_id is not None:
        trees = [tree for tree in trees
                 if tree.trace_id == args.trace_id]
        if not trees:
            print(f"error: no spans for trace {args.trace_id}",
                  file=sys.stderr)
            return 2
    coverage = completeness(trees)
    table = attribution_table(trees)
    # Slowest requests first: where an investigation starts.
    ranked = sorted(trees, key=lambda tree: attribution(tree)["total"],
                    reverse=True)
    shown = ranked if args.trace_id is not None else \
        ranked[:max(0, args.limit)]
    report = {
        "logs": list(args.logs),
        "completeness": coverage,
        "attribution": table,
        "slowest": [
            {"trace_id": tree.trace_id,
             "complete": tree.complete,
             **attribution(tree),
             "critical_path": [
                 {"name": span.get("name"),
                  "process": span.get("process"),
                  "ms": span.get("seconds", 0.0) * 1000.0}
                 for span in tree.critical_path()]}
            for tree in shown],
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"{coverage['traces']} trace(s) from "
              f"{len(args.logs)} log(s): {coverage['complete']} "
              f"complete ({coverage['complete_pct']:.1f}%), "
              f"{coverage['incomplete']} incomplete")
        print()
        print(format_attribution(table))
        for tree in shown:
            print()
            print(render_tree(tree))
    if args.out is not None:
        from .obs.export import _write_text_atomic
        _write_text_atomic(pathlib.Path(args.out),
                           json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}",
              file=sys.stderr if args.format == "json" else sys.stdout)
    if (args.min_completeness is not None
            and coverage["complete_pct"] < args.min_completeness):
        print(f"error: trace completeness "
              f"{coverage['complete_pct']:.2f}% below the required "
              f"{args.min_completeness:.2f}%", file=sys.stderr)
        return 1
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    from .xml.schema import render_diagram
    from .xml.schema_export import to_dtd, to_xsd
    db_class = CLASSES_BY_KEY[args.class_key]
    schema = db_class.schema()
    if args.format == "dtd":
        print(to_dtd(schema), end="")
    elif args.format == "xsd":
        print(to_xsd(schema), end="")
    else:
        print(render_diagram(schema, db_class.label))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core.verification import verify_scenario
    bench = XBench(BenchmarkConfig(scale_divisor=args.divisor,
                                   snapshot_dir=args.snapshot_dir))
    class_keys = ([args.class_key] if args.class_key
                  else sorted(CLASSES_BY_KEY))
    mismatches = 0
    sharded_mismatches = 0
    for class_key in class_keys:
        report = verify_scenario(bench, class_key, args.scale,
                                 shards=args.shards,
                                 rpc_timeout=args.rpc_timeout,
                                 replicas=args.replicas)
        print(report.format())
        print()
        mismatches += len(report.mismatches())
        if args.shards > 1:
            # The sharded row's label is "... xN" (plus " +Nr" with
            # replicas), so match the shard marker anywhere.
            suffix = f" x{args.shards}"
            sharded_mismatches += sum(
                1 for label, __ in report.mismatches()
                if suffix in label)
    print(f"{mismatches} cell(s) differ from the native oracle "
          "(expected: the paper's documented mapping infidelities)")
    if sharded_mismatches:
        print(f"error: {sharded_mismatches} sharded cell(s) differ "
              "from the single-process oracle (merge bug)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    scales = tuple(args.scales.split(","))
    config = BenchmarkConfig(scale_divisor=args.divisor,
                             scale_names=scales,
                             class_keys=tuple(args.classes.split(",")),
                             with_indexes=not args.no_indexes,
                             repeats=args.repeats,
                             observe=args.obs_out is not None,
                             shards=args.shards,
                             rpc_timeout=args.rpc_timeout,
                             snapshot_dir=args.snapshot_dir)
    bench = XBench(config)
    suite = bench.run_suite()
    if args.format == "csv":
        from .core.report import format_csv
        print(format_csv(suite))
    elif args.format == "json":
        from .core.report import format_json
        print(format_json(suite))
    else:
        print(format_suite(suite, scale_names=scales))
    if args.obs_out is not None:
        from .obs import bench_summary, write_bench_artifact
        summary = bench_summary("suite", suite=suite,
                                recorder=bench.recorder,
                                config=config.record())
        path = write_bench_artifact(summary, args.obs_out)
        print(f"wrote {path}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import pathlib
    from .xml.serializer import serialize
    db_class = CLASSES_BY_KEY[args.class_key]
    directory = pathlib.Path(args.out) / args.class_key
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    documents = db_class.generate(args.units, seed=args.seed)
    for document in documents:
        text = serialize(document)
        (directory / document.name).write_text(
            '<?xml version="1.0" encoding="UTF-8"?>' + text,
            encoding="utf-8")
        total += len(text)
    print(f"wrote {len(documents)} document(s), {total / 1024:.0f} KB "
          f"to {directory}")
    return 0


def _load_engine(engine_key: str, class_key: str, units: int,
                 seed: int, shards: int = 0,
                 rpc_timeout: float | None = None,
                 replicas: int = 0, consistency: str = "strong"):
    from .xml.serializer import serialize
    db_class = CLASSES_BY_KEY[class_key]
    if shards > 1:
        from .core.shard import ShardedEngine
        engine = ShardedEngine(engine_key, shards=shards,
                               timeout=rpc_timeout,
                               replicas=replicas,
                               default_consistency=consistency)
    else:
        engine = create(engine_key)
    try:
        engine.check_supported(db_class, "small")
        documents = db_class.generate(units, seed=seed)
        engine.timed_load(db_class,
                          [(d.name, serialize(d)) for d in documents])
        engine.create_indexes(list(indexes_for(class_key)))
    except BaseException:
        # A failed load must still reap sharded worker processes.
        engine.close()
        raise
    return engine


def _cmd_query(args: argparse.Namespace) -> int:
    qid = args.qid.upper()
    if not _query_defined(qid, args.class_key):
        return 1
    with _load_engine(args.engine, args.class_key, args.units,
                      args.seed) as engine:
        params = bind_params(qid, args.class_key, args.units)
        outcome = engine.timed_execute(qid, params)
        print(f"{qid} on {args.class_key} via {engine.row_label}: "
              f"{len(outcome.values)} item(s) in "
              f"{outcome.seconds * 1000:.2f} ms")
        print(f"  query: "
              f"{QUERIES_BY_ID[qid].text_for(args.class_key)}")
        print(f"  params: {params}")
        for value in outcome.values[:args.limit]:
            preview = (value if len(value) <= 100
                       else value[:97] + "...")
            print(f"  {preview}")
        if len(outcome.values) > args.limit:
            print(f"  ... {len(outcome.values) - args.limit} more")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats import analyze_corpus, best_fit, format_table2
    db_class = CLASSES_BY_KEY[args.class_key]
    documents = db_class.generate(args.units, seed=args.seed)
    stats = analyze_corpus(documents, source=db_class.label)
    print(format_table2([stats]))
    print(f"\nelement types: {stats.distinct_element_types}, "
          f"elements: {stats.total_elements}, "
          f"max depth: {stats.max_depth}, "
          f"text ratio: {stats.text_ratio():.2f}, "
          f"mixed types: {sorted(stats.mixed_tags) or 'none'}")
    print("\nchild-occurrence fits:")
    for pair in stats.parent_child_pairs():
        samples = [float(v) for v in stats.occurrence_samples(*pair)]
        if len(samples) >= 10:
            print(f"  {pair[0]}/{pair[1]}: {best_fit(samples)}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    if not args.full:
        print(f"{'id':<5}{'functionality':<45}{'classes'}")
        for query in ALL_QUERIES:
            classes = ",".join(sorted(query.xquery))
            print(f"{query.qid:<5}{query.functionality:<45}{classes}")
        return 0
    for query in ALL_QUERIES:
        print(f"{query.qid} - {query.functionality}")
        print(f"  {query.description}")
        print(f"  canonical class: {query.canonical_class}")
        for class_key in sorted(query.xquery):
            print(f"  [{class_key}] {query.text_for(class_key)}")
        print()
    return 0


def _cmd_updates(args: argparse.Namespace) -> int:
    from .workload.updates import make_update_stream, run_update_stream
    with _load_engine(args.engine, args.class_key, args.units, 42,
                      shards=args.shards) as engine:
        stream = make_update_stream(args.class_key, args.units,
                                    count=args.count)
        stats = run_update_stream(engine, args.class_key, stream)
        print(f"update stream on {args.class_key} via "
              f"{engine.row_label}:")
        for kind in sorted(stats.counts):
            print(f"  {kind:<8}{stats.counts[kind]:>4} ops, "
                  f"mean {stats.mean_ms(kind):8.3f} ms")
    return 0


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
