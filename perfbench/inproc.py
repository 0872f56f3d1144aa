"""In-process part of every workload: the native engine in the
benchmark's own process on the workload's two database classes, no
server, shards or WAL.

Phases, each timed separately:

1. set-up: generate and serialize the classes (repeated);
2. bulk load from text plus the Table 3 index build (repeated);
3. RXSN snapshot write, then warm load from the snapshots (repeated);
4. closed-loop rounds of the 20 (class, experiment query) pairs for the
   part's share of the run length, by one caller.

The trace run (``--trace 1``) repeats the phases with an obs
:class:`~repro.obs.Recorder` installed and timers around the layers'
public functions, and splits the round phase into an untraced and a
traced half to measure the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import re
import time
from contextlib import contextmanager, nullcontext
from xml.sax.saxutils import unescape

import common
from common import metric

#: set-ups per run; their median is the in-process share of setup_s.
SETUP_REPEATS = 3
#: text loads and warm loads per run; their metrics are per-class
#: medians.  A warm load of one class takes only 0.1-0.3 s, so it is
#: repeated more often.
LOAD_REPEATS = 3
WARM_REPEATS = 7
_POINT_KEY = {"dcsd": re.compile(r'<item id="([^"]*)"'),
              "dcmd": re.compile(r'<order id="([^"]*)"'),
              "tcmd": re.compile(r'<article id="([^"]*)"'),
              "tcsd": re.compile(r"<hw>([^<]*)</hw>")}


def generate(classes, seed: int, clock: common.RefClock) -> tuple[
        dict, float, float]:
    """Serialized corpora per class; the reference seconds of the whole
    set-up and of the generators alone."""
    from repro.databases import CLASSES_BY_KEY
    from repro.xml.serializer import serialize
    texts, setup_s, generate_s = {}, 0.0, 0.0
    for class_key, units in classes:
        clock.mark()
        began = time.perf_counter()
        documents = CLASSES_BY_KEY[class_key].generate(units, seed=seed)
        generated = time.perf_counter() - began
        texts[class_key] = [(d.name, serialize(d)) for d in documents]
        total = time.perf_counter() - began
        factor = clock.factor()
        setup_s += total * factor
        generate_s += generated * factor
    return texts, setup_s, generate_s


def point_keys(class_key: str, texts) -> list[str]:
    """One key per unit (item, order, entry, article) in document
    order: the ``@id`` values, or each entry's headword for TC/SD."""
    pattern = _POINT_KEY[class_key]
    return [unescape(key) for __, text in texts
            for key in pattern.findall(text)]


def round_requests(classes, keys: dict, rng) -> list[tuple]:
    """One round: every (class, experiment query) pair, point keys and
    the Q17 search word drawn uniformly."""
    from repro.workload import bind_params
    requests = []
    for class_key, units in classes:
        key = rng.choice(keys[class_key])
        word = rng.choice(common.SEARCH_WORDS)
        for qid in common.EXPERIMENT_QUERIES:
            params = dict(bind_params(qid, class_key, units))
            if qid in common.POINT_QUERIES:
                params["word" if class_key == "tcsd" else "id"] = key
            elif qid == "Q17":
                params["word"] = word
            requests.append((class_key, qid, params))
    return requests


def load_all(classes, corpora: dict,
             clock: common.RefClock) -> tuple[dict, dict]:
    """Fresh native engines for every class: bulk load + indexes.
    Returns the engines and, for each of ``total``, ``bulk`` (inside
    ``bulk_load``) and ``index`` (inside ``create_indexes``), the
    reference seconds per class."""
    from repro.core.indexes import indexes_for
    from repro.databases import CLASSES_BY_KEY
    from repro.engines import create
    engines: dict = {}
    times: dict = {"total": {}, "bulk": {}, "index": {}}
    for class_key, __ in classes:
        clock.mark()
        began = time.perf_counter()
        engine = create("native")
        stats = engine.timed_load(CLASSES_BY_KEY[class_key],
                                  corpora[class_key])
        indexed = time.perf_counter()
        engine.create_indexes(list(indexes_for(class_key)))
        done = time.perf_counter()
        factor = clock.factor()
        times["total"][class_key] = (done - began) * factor
        times["bulk"][class_key] = stats.seconds * factor
        times["index"][class_key] = (done - indexed) * factor
        engines[class_key] = engine
    return engines, times


def median_sum(reps: list[dict], kind: str) -> float:
    """The sum over classes of each class's median over repeats: a slow
    moment that hits one class in one repeat drops out."""
    return sum(common.median([rep[kind][class_key] for rep in reps])
               for class_key in reps[0][kind])


def close_all(engines: dict) -> None:
    for engine in engines.values():
        engine.close()


def run_rounds(classes, engines: dict, rng, keys: dict,
               seconds: float | None, log: list,
               clock: common.RefClock) -> tuple[list, float]:
    """Closed-loop whole rounds until ``seconds`` of wall time have gone
    into rounds (one round when ``seconds`` is None), a probe between
    consecutive rounds.  Appends ``(class, qid, params, values)`` to
    ``log``; returns per-round ``{qid: [seconds]}`` and the time spent
    in rounds, both in reference seconds."""
    per_round = []
    wall, busy = 0.0, 0.0
    clock.mark()
    while True:
        began_round = time.perf_counter()
        latencies: dict[str, list[float]] = {}
        for class_key, qid, params in round_requests(classes, keys, rng):
            began = time.perf_counter()
            values = engines[class_key].execute(qid, params)
            latencies.setdefault(qid, []).append(time.perf_counter()
                                                 - began)
            log.append((class_key, qid, params, values))
        elapsed = time.perf_counter() - began_round
        factor = clock.factor()
        per_round.append({qid: [s * factor for s in samples]
                          for qid, samples in latencies.items()})
        wall += elapsed
        busy += elapsed * factor
        if seconds is None or wall >= seconds:
            return per_round, busy


class Tally:
    """Time, calls and input bytes accumulated inside one function."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.bytes = 0


class LayerTimers:
    """Wall time and volume inside the layers' public functions, by
    wrapping the module attributes their callers look up at call time
    (``materialize`` imports ``parse_document`` per call, an
    :class:`~repro.xml.binary.EncodedDocument` calls the module's
    ``decode_document``, ``CompiledQuery`` its module's ``parse_query``
    and ``evaluate``, index plans ``repro.engines.native._evaluate``)."""

    def __init__(self) -> None:
        self.tallies: dict[str, Tally] = {}

    def _wrap(self, name: str, func, size=None):
        tally = self.tallies.setdefault(name, Tally())

        def timed(*args, **kwargs):
            began = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tally.seconds += time.perf_counter() - began
                tally.calls += 1
                if size is not None:
                    tally.bytes += size(args[0])
        return timed

    @contextmanager
    def installed(self):
        import repro.engines.native as native
        import repro.xml.binary as binary
        import repro.xml.parser as parser
        import repro.xquery.engine as xquery_engine
        patches = [
            (parser, "parse_document", "parse",
             lambda text: len(text.encode("utf-8"))),
            (binary, "decode_document", "decode", len),
            (xquery_engine, "parse_query", "compile", None),
            (xquery_engine, "evaluate", "evaluate", None),
            (native, "_evaluate", "evaluate", None),
        ]
        saved = []
        for module, attr, name, size in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, size))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def take(self, name: str) -> Tally:
        """The tally of ``name`` so far; counting restarts from zero."""
        taken = Tally()
        tally = self.tallies.get(name)
        if tally is not None:
            taken.__dict__.update(vars(tally))
            tally.__dict__.update(vars(Tally()))
        return taken


def _ops(rounds: list[dict]) -> int:
    return sum(len(v) for r in rounds for v in r.values())


def run(args, children: common.Children, workdir, classes,
        seconds: float) -> dict:
    """The in-process part on ``classes`` ((class, units) pairs), its
    rounds taking ``seconds``.  Returns ``attempted``, ``failed``, the
    set-up times (``setup``, reference seconds) and ``metrics``:
    end-to-end, or per-layer when ``args.trace`` is set."""
    from repro.core.corpus_io import Snapshot, write_snapshot
    from repro.obs import Recorder, observing

    traced = bool(args.trace)
    clock = common.RefClock()
    timers = LayerTimers()
    recorder = Recorder(name="perfbench")

    setup_s, generate_s = [], []
    for __ in range(SETUP_REPEATS):
        gc.collect()
        texts, setup, generated = generate(classes, args.seed, clock)
        setup_s.append(setup)
        generate_s.append(generated)
    source_mb = sum(len(text.encode("utf-8")) for pairs in texts.values()
                    for __, text in pairs) / 1e6
    keys = {class_key: point_keys(class_key, texts[class_key])
            for class_key, __ in classes}

    with (timers.installed() if traced else nullcontext()), \
            (observing(recorder) if traced else nullcontext()):
        loads: list[dict] = []
        engines: dict = {}
        for __ in range(LOAD_REPEATS):
            close_all(engines)
            gc.collect()
            engines, times = load_all(classes, texts, clock)
            loads.append(times)
        parse = timers.take("parse")

        snapshot_paths, write_s = {}, 0.0
        for class_key, units in classes:
            snapshot_paths[class_key] = workdir / f"{class_key}.rxs"
            __, written = clock.timed(
                write_snapshot, snapshot_paths[class_key],
                engines[class_key].documents(),
                {"class": class_key, "units": units, "seed": args.seed})
            write_s += written
        close_all(engines)
        engines = {}
        snapshot_mb = sum(path.stat().st_size
                          for path in snapshot_paths.values()) / 1e6

        warms: list[dict] = []
        for __ in range(WARM_REPEATS):
            close_all(engines)
            gc.collect()
            snapshots = {key: Snapshot.open(path)
                         for key, path in snapshot_paths.items()}
            try:
                engines, times = load_all(
                    classes, {key: snapshot.corpus()
                     for key, snapshot in snapshots.items()}, clock)
            finally:
                for snapshot in snapshots.values():
                    snapshot.close()
            warms.append(times)
        decode = timers.take("decode")

        # One untimed round compiles and plans every query; in the trace
        # run it is where the planner's decisions are counted.
        log: list = []
        rng = common.rng_for(args.seed, "inproc-rounds")
        run_rounds(classes, engines, rng, keys, None, log, clock)
        first_round = dict(recorder.counters.snapshot())
        compile_ = timers.take("compile")

    if traced:
        half = seconds / 2
        plain_rounds, plain_busy = run_rounds(classes, engines, rng, keys,
                                              half, log, clock)
        timers.take("evaluate")         # drop the warm-up round's share
        before = recorder.counters.snapshot()
        with timers.installed(), observing(recorder):
            rounds, busy = run_rounds(classes, engines, rng, keys, half,
                                      log, clock)
        after = recorder.counters.snapshot()
        delta = {name: after[name] - before.get(name, 0) for name in after}
    else:
        rounds, busy = run_rounds(classes, engines, rng, keys, seconds,
                                  log, clock)
    rss_mb = common.peak_rss_mb()
    ops = _ops(rounds)
    close_all(engines)

    failed = check_answers(children, workdir, texts, log)
    result = {"correct": True, "attempted": len(log), "failed": failed,
              "setup": setup_s}
    if not traced:
        result["metrics"] = {
            "inproc_ops_per_s": metric(ops / busy, "ref_ops/s"),
            "inproc_point_ms": metric(1000 * common.trimmed_mean(
                common.round_means(rounds, common.POINT_QUERIES)),
                "ref_ms"),
            "inproc_scan_ms": metric(1000 * common.trimmed_mean(
                common.round_means(rounds, common.SCAN_QUERIES)),
                "ref_ms"),
            "load_mb_s": metric(source_mb / median_sum(loads, "total"),
                                "ref_MB/s"),
            "warm_load_mb_s": metric(source_mb
                                     / median_sum(warms, "total"),
                                     "ref_MB/s"),
            "snapshot_mb": metric(snapshot_mb, "MB"),
            "inproc_rss_mb": metric(rss_mb, "MB"),
        }
        return result

    # Wall times inside the layers, scaled by the run's median probe.
    scale = common.PROBE_REFERENCE_S / common.median(clock.samples)
    evaluate = timers.take("evaluate")
    hits = (first_round.get("xquery.cache.hit", 0)
            + delta.get("xquery.cache.hit", 0))
    misses = (first_round.get("xquery.cache.miss", 0)
              + delta.get("xquery.cache.miss", 0))
    plain_rate = _ops(plain_rounds) / plain_busy
    traced_rate = ops / busy
    result["metrics"] = {
        "toxgene.generate_s": metric(common.median(generate_s), "ref_s"),
        "xml.parse_ms_per_mb": metric(
            1000 * scale * parse.seconds / (parse.bytes / 1e6),
            "ref_ms/MB"),
        "xml.binary.decode_ms_per_mb": metric(
            1000 * scale * decode.seconds / (decode.bytes / 1e6),
            "ref_ms/MB"),
        "core.corpus_io.write_ms": metric(1000 * write_s, "ref_ms"),
        "engines.native.load_ms": metric(
            1000 * median_sum(loads, "bulk"), "ref_ms"),
        "engines.native.warm_load_ms": metric(
            1000 * median_sum(warms, "bulk"), "ref_ms"),
        "engines.native.index_ms": metric(
            1000 * median_sum(loads, "index"), "ref_ms"),
        "xquery.compile_ms": metric(
            1000 * scale * compile_.seconds / max(compile_.calls, 1),
            "ref_ms"),
        "xquery.cache_hit_ratio": metric(hits / max(hits + misses, 1),
                                         "ratio"),
        "engines.planner.index_plans": metric(
            first_round.get("planner.index_plans", 0), "count"),
        "engines.planner.scan_plans": metric(
            first_round.get("planner.scan_plans", 0), "count"),
        "engines.native.documents_visited_per_query": metric(
            delta.get("native.documents_visited", 0) / ops, "count"),
        "xquery.evaluate_ms_per_query": metric(
            1000 * scale * evaluate.seconds / ops, "ref_ms"),
        "xquery.nodes_visited_per_query": metric(
            delta.get("xquery.nodes_visited", 0) / ops, "count"),
        "obs.inproc_overhead_pct": metric(
            100 * (plain_rate - traced_rate) / plain_rate, "%"),
    }
    return result


def check_answers(children, workdir, texts: dict, log: list) -> int:
    """Compare every logged answer with the oracle's; returns the number
    of requests whose answer disagrees."""
    import oracle
    corpora = {}
    for class_key, pairs in texts.items():
        path = workdir / f"{class_key}.corpus.json"
        path.write_text(json.dumps(pairs))
        corpora[class_key] = str(path)
    unique: dict[str, int] = {}
    requests = []
    for class_key, qid, params, __ in log:
        token = json.dumps([class_key, qid, params], sort_keys=True)
        if token not in unique:
            unique[token] = len(requests)
            requests.append([class_key, qid, params])
    answers = common.run_oracle(children, workdir, corpora, requests)
    failed = 0
    for class_key, qid, params, values in log:
        token = json.dumps([class_key, qid, params], sort_keys=True)
        if not oracle.matches(qid, answers[unique[token]], values):
            failed += 1
    return failed
