# Convenience targets; everything below is plain dune.

.PHONY: all build test smoke batch-smoke regir-smoke explore-smoke perfbench-smoke bench lint clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: build and the full test suite, which holds every parity
# check (tier identity, warm = cold, shard-count invariance, golden traces).
smoke:
	dune build && dune runtest

# Replay farm gate: record the whole registry across 4 shard domains and
# fail unless every job completes (the aggregate digest is checked against
# a sequential run by test_server and bench E12).
batch-smoke:
	dune exec bin/dvrun.exe -- batch --shards 4 --out _batch

# Register-tier speed floor: run every registry workload live with the
# register-IR tier on and off and fail if any workload of >= 200k
# instructions runs slower than 0.95x with the tier on. (That the tier is
# invisible to replay is checked by test_dispatch under dune runtest.)
regir-smoke:
	dune exec bench/main.exe -- regir-smoke

# Exploration gate: the bounded DPOR search must find the seeded
# atomicity bug, and every emitted failure trace must replay through the
# stock replayer to the identical status/output/state digest (exit 1
# otherwise — --expect-failure inverts the usual success criterion).
explore-smoke:
	rm -rf _explore && dune exec bin/dvrun.exe -- explore atomicity \
	  --out _explore --expect-failure

# End-to-end benchmark gate: one short run of each perfbench workload
# (record, replay and the farm, every operation checked against its own
# reference) and fail unless each result reports "correct": true and no
# failed operation. A correctness gate, not a timing one.
PERFBENCH_CHECK = import json, sys; r = json.loads(sys.stdin.read().strip().splitlines()[-1]); \
  print("perfbench-smoke %s: correct=%s attempted=%s failed=%s" % (sys.argv[1], r["correct"], r["attempted"], r["failed"])); \
  sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)

perfbench-smoke:
	for w in compute-long event-dense farm-mixed; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 \
	    | python3 -c '$(PERFBENCH_CHECK)' $$w || exit 1; \
	done

bench:
	dune exec bench/main.exe

# Static race audit over the whole workload registry, gated by the curated
# allow-list (exit 1 on any racy finding not in LINT_baseline.json).
lint:
	dune exec bin/dvrun.exe -- lint --all --baseline LINT_baseline.json

clean:
	dune clean
