"""Recovery child of the served part of every workload.

    python3 perfbench/recover.py DATA_DIR SHARDS REPEATS READBACK \
        IDS_JSON OUT

Recovers the drained data directory REPEATS times (each a cold start
from its newest checkpoint plus the WAL suffix, timed in reference
seconds by the benchmark's host-speed probe), then reads every id in
IDS_JSON back with the ad-hoc XQuery READBACK (``$id`` bound to the id)
on the last recovered engine and writes ``{"seconds": [...],
"committed_seq", "wal_records", "readback": {id: values}}`` to OUT.
"""

from __future__ import annotations

import json
import sys
import time

from common import Echo, RefClock


def main(argv: list[str]) -> int:
    data_dir, shards, repeats, readback, ids, out = argv
    from repro.core.shard import ShardedEngine
    seconds = []
    # The engines' forked workers inherit the echo pipes, so every
    # engine is closed before the echo helper is.
    with Echo() as echo:
        clock = RefClock(echo)
        # The probe after one recovery is the probe before the next.
        clock.mark()
        for attempt in range(int(repeats)):
            began = time.perf_counter()
            engine = ShardedEngine("native", shards=int(shards),
                                   recover_dir=data_dir)
            seconds.append((time.perf_counter() - began) * clock.factor())
            if attempt < int(repeats) - 1:
                engine.close()
        try:
            report = engine.last_recovery_report
            values = {ident: engine.adhoc(readback, {"id": ident}).values
                      for ident in json.loads(ids)}
        finally:
            engine.close()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds,
                   "committed_seq": report["committed_seq"],
                   "wal_records": report["wal_records"],
                   "readback": values},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
