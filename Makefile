# Convenience targets; everything below is plain dune.

.PHONY: all build test smoke mutants batch-smoke serve-smoke regir-smoke bench-smoke explore-smoke perfbench-smoke bench lint clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: build and the full test suite, which holds every parity
# check (tier identity, warm = cold, shard-count invariance, golden traces).
smoke:
	dune build && dune runtest

# Mutant catalogue: each test/mutants/*.patch breaks one guarantee on
# purpose, and its first line names the check that must kill it. Each
# patch is applied to a fresh copy of the tree (the files git tracks or
# does not ignore) in a directory under $$TMPDIR. Fails if a patch no
# longer applies, if the mutant does not build (a mutant must be killed
# by a test, not by the compiler), or if `dune runtest` still passes. A
# mutant can make a random property test loop, so the suite gets 5
# minutes; running out counts as killed.
mutants:
	@for p in test/mutants/*.patch; do \
	  dir=$$(mktemp -d "$${TMPDIR:-/tmp}/mutant.XXXXXX"); \
	  git ls-files -z -co --exclude-standard | tar --null -T - -cf - \
	    | tar -x -C $$dir; \
	  if ! patch -s -p1 -F0 -N -d $$dir -i $(CURDIR)/$$p; then \
	    echo "mutants: $$p no longer applies"; rm -rf $$dir; exit 1; fi; \
	  if ! (cd $$dir && dune build 2>&1 >/dev/null); then \
	    echo "mutants: $$p does not build"; rm -rf $$dir; exit 1; fi; \
	  if (cd $$dir && timeout 300 dune runtest >$$dir/runtest.log 2>&1); then \
	    echo "mutants: $$p survived dune runtest"; rm -rf $$dir; exit 1; fi; \
	  echo "mutants: $$p killed ($$(grep -c '^> \[FAIL\]' $$dir/runtest.log) failing cases)"; \
	  rm -rf $$dir; done

# Replay farm gate: record the whole registry across 4 shard domains and
# fail unless every job completes (the aggregate digest is checked against
# a sequential run by test_server's shard-count invariance). Then record
# it 3 rounds over on one shard into _batch/warm: rounds 2 and 3 run on
# reset VMs whose methods get their compiled code back from the VM's code
# cache, and each program's NAME-r2.trace and NAME-r3.trace must be
# byte-identical to its round-1 NAME.trace, for all 23 programs. Fail if
# any writer left its scratch files (*.tmp, *.spill) behind. Then replay two of
# the recorded files through the user-facing CLI, which exits by the
# replay's verdict: 0 reproduced, 1 diverged or trace words left, 2 bad
# input. Then record primes and replay it with -v: the record's stats
# must show preemption requests (preempts= above 0) and the replay's must
# show preempts=0, since the environment's timer never runs in replay.
# Then record and replay examples/progs/oom.djv, whose run ends
# fatal (out of memory): its replay reproduces that and must exit 0. Then
# drive the replay debugger (`dvrun debug`) through a batch session that
# watches, continues, travels back and quits, which must exit 0. (How
# dvrun exits on bad input is test_cli's table, run by `dune runtest`.)
batch-smoke:
	dune exec bin/dvrun.exe -- batch --shards 4 --out _batch
	dune exec bin/dvrun.exe -- batch --shards 1 --rounds 3 --out _batch/warm
	@n=0; for t in _batch/warm/*-r2.trace; do \
	  base=$${t%-r2.trace}; \
	  for r in r2 r3; do \
	    if ! cmp $$base.trace $$base-$$r.trace; then \
	      echo "batch-smoke: $$base-$$r.trace differs from $$base.trace"; \
	      exit 1; fi; done; \
	  n=$$((n + 1)); done; \
	  echo "batch-smoke: warm rounds 2 and 3 byte-identical for $$n programs"; \
	  if [ $$n -ne 23 ]; then \
	    echo "batch-smoke: expected 23 programs in _batch/warm, found $$n"; \
	    exit 1; fi
	@left=$$(find _batch -name '*.spill' -o -name '*.tmp'); \
	  if [ -n "$$left" ]; then echo "batch-smoke: scratch files left:"; \
	    echo "$$left"; exit 1; fi
	dune exec bin/dvrun.exe -- replay bank -i _batch/bank.trace
	dune exec bin/dvrun.exe -- replay racy-counter -i _batch/racy-counter.trace
	@rec=$$(dune exec bin/dvrun.exe -- record primes -v -o _batch/primes-v.trace \
	    | grep -o 'preempts=[0-9]*'); \
	  rep=$$(dune exec bin/dvrun.exe -- replay primes -v -i _batch/primes-v.trace \
	    | grep -o 'preempts=[0-9]*'); \
	  echo "batch-smoke: record $$rec, replay $$rep"; \
	  case "$$rec" in preempts=0|"") \
	    echo "batch-smoke: the recording raised no preemption requests"; exit 1;; esac; \
	  if [ "$$rep" != preempts=0 ]; then \
	    echo "batch-smoke: the replay ran the timer ($$rep)"; exit 1; fi
	dune exec bin/dvrun.exe -- record examples/progs/oom.djv -o _batch/oom.trace
	dune exec bin/dvrun.exe -- replay examples/progs/oom.djv -i _batch/oom.trace
	dune exec bin/dvrun.exe -- debug racy-counter \
	  --batch "watch Racy.count; continue; goto 10; continue; quit"

# Socket farm gate: start `dvrun serve` for five connections on a socket
# in a temp dir and wait for the socket file. First send two malformed
# request frames, each on its own connection, and wait for the server to
# hang up on each: one whose workload string claims 2^62-1 bytes, and one
# lint Submit whose workload name is 9 MiB (over the 4,096-byte bound;
# the client then half-closes, as a Finish would). The server must refuse
# each conversation as a protocol error and keep serving. Submit three
# roundtrip jobs
# with `dvrun submit`; record `bank` locally and submit a replay of it,
# which must pass; then submit a replay of `racy-counter` against the bank
# trace, which must fail (the trace is rejected as another program's, the
# job fails with that verdict, and submit exits non-zero on any failed
# job). Then wait for the server to
# exit. Fails if a passing step exits non-zero, if the negative step exits
# zero, if the server never opens its socket, or if it exits non-zero.
DVRUN = _build/default/bin/dvrun.exe

serve-smoke:
	dune build $(DVRUN)
	@dir=$$(mktemp -d); sock=$$dir/dv.sock; \
	  $(DVRUN) serve --shards 2 --max-conns 5 --socket $$sock \
	    --out $$dir/out & pid=$$!; \
	  n=0; while [ ! -S $$sock ]; do \
	    n=$$((n + 1)); \
	    if [ $$n -gt 600 ] || ! kill -0 $$pid 2>/dev/null; then \
	      echo "serve-smoke: server never opened $$sock"; \
	      kill $$pid 2>/dev/null; rm -rf $$dir; exit 1; fi; \
	    sleep 0.1; done; \
	  python3 -c 'import socket, struct, sys; \
	    p = b"\0\0\xfe" + b"\xff" * 7 + b"\x7f"; \
	    s = socket.socket(socket.AF_UNIX); s.connect(sys.argv[1]); \
	    s.sendall(struct.pack(">i", len(p)) + p); s.recv(1); s.close()' $$sock; \
	  python3 -c 'import socket, struct, sys; \
	    n = 9 << 20; p = b"\0\6\x80\x80\x80\x09" + b"x" * n + b"\2\0\0"; \
	    s = socket.socket(socket.AF_UNIX); s.connect(sys.argv[1]); \
	    s.sendall(struct.pack(">i", len(p)) + p); \
	    s.shutdown(socket.SHUT_WR); s.recv(1); s.close()' $$sock; \
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

# Baseline-scheme gate: the paper experiments that run the section-5
# comparators (E7 trace sizes, E8 instruction counting, E11 symmetry
# ablation). E8 exits 1 unless every instruction-count roundtrip's
# verdict is ok.
bench-smoke:
	dune exec bench/main.exe -- E7 E8 E11

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
