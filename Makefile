# Convenience targets; everything below is plain dune.

.PHONY: all build test smoke batch-smoke serve-smoke regir-smoke explore-smoke perfbench-smoke bench lint clean

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
# a sequential run by test_server's shard-count invariance), or if any
# writer left its scratch files (*.tmp, *.spill) behind. Then replay two of
# the recorded files through the user-facing CLI; `dvrun replay` exits 1
# if a replay diverges or leaves trace words unconsumed.
batch-smoke:
	dune exec bin/dvrun.exe -- batch --shards 4 --out _batch
	@left=$$(find _batch -name '*.spill' -o -name '*.tmp'); \
	  if [ -n "$$left" ]; then echo "batch-smoke: scratch files left:"; \
	    echo "$$left"; exit 1; fi
	dune exec bin/dvrun.exe -- replay bank -i _batch/bank.trace
	dune exec bin/dvrun.exe -- replay racy-counter -i _batch/racy-counter.trace

# Socket farm gate: start `dvrun serve` for three connections on a socket
# in a temp dir and wait for the socket file. Submit three roundtrip jobs
# with `dvrun submit`; record `bank` locally and submit a replay of it,
# which must pass; then submit a replay of `racy-counter` against the bank
# trace, which must fail (a program-digest divergence ends the replay
# fatal, and submit must exit non-zero on it). Then wait for the server to
# exit. Fails if a passing step exits non-zero, if the negative step exits
# zero, if the server never opens its socket, or if it exits non-zero.
DVRUN = _build/default/bin/dvrun.exe

serve-smoke:
	dune build $(DVRUN)
	@dir=$$(mktemp -d); sock=$$dir/dv.sock; \
	  $(DVRUN) serve --shards 2 --max-conns 3 --socket $$sock \
	    --out $$dir/out & pid=$$!; \
	  n=0; while [ ! -S $$sock ]; do \
	    n=$$((n + 1)); \
	    if [ $$n -gt 600 ] || ! kill -0 $$pid 2>/dev/null; then \
	      echo "serve-smoke: server never opened $$sock"; \
	      kill $$pid 2>/dev/null; rm -rf $$dir; exit 1; fi; \
	    sleep 0.1; done; \
	  $(DVRUN) submit --socket $$sock roundtrip bank racy-counter timed; \
	  rc=$$?; \
	  $(DVRUN) record bank -o $$dir/bank.trace >/dev/null && \
	  $(DVRUN) submit --socket $$sock replay bank --trace $$dir/bank.trace; \
	  prc=$$?; \
	  $(DVRUN) submit --socket $$sock replay racy-counter \
	    --trace $$dir/bank.trace; \
	  nrc=$$?; wait $$pid; src=$$?; rm -rf $$dir; \
	  if [ $$rc -ne 0 ]; then echo "serve-smoke: submit exited $$rc"; exit 1; fi; \
	  if [ $$prc -ne 0 ]; then echo "serve-smoke: bank replay exited $$prc"; exit 1; fi; \
	  if [ $$nrc -eq 0 ]; then \
	    echo "serve-smoke: replay of racy-counter against a bank trace exited 0"; \
	    exit 1; fi; \
	  if [ $$src -ne 0 ]; then echo "serve-smoke: serve exited $$src"; exit 1; fi

# Register-tier speed floor: run every registry workload live with the
# register-IR tier on and off and fail if any workload of >= 200k
# instructions runs slower than 0.95x with the tier on. (That the tier is
# invisible to replay is checked by test_dispatch under dune runtest.)
regir-smoke:
	dune exec bench/main.exe -- regir-smoke

# Exploration gate: the bounded DPOR search must find the seeded
# atomicity bug, and every emitted failure trace must replay through the
# stock replayer to the identical status/output/state digest (exit 1
# otherwise — --expect-failure inverts the usual success criterion). Then
# the same search on 2 farm shards must print the same summary line: the
# report does not depend on which runner ran the schedules.
explore-smoke:
	rm -rf _explore && dune exec bin/dvrun.exe -- explore atomicity \
	  --out _explore --expect-failure
	@one=$$(dune exec bin/dvrun.exe -- explore atomicity | head -1); \
	  two=$$(dune exec bin/dvrun.exe -- explore atomicity --shards 2 | head -1); \
	  echo "$$two"; \
	  if [ "$$one" != "$$two" ]; then \
	    echo "explore-smoke: 2-shard summary differs from 1-shard:"; \
	    echo "$$one"; exit 1; fi

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
