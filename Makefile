GO ?= go

.PHONY: check vet fmt build lint lint-json lockorder-golden loc test race chaos fuzz-wire fuzz-scenario replay obs dht scenario bench-trace bench bench-all

# check is the pre-commit gate referenced from README: static checks,
# full build, race-enabled tests, the record/replay gate, and the
# disabled-tracing overhead benchmark (EXPERIMENTS.md "Tracing overhead
# microbenchmark"). Project lint runs as its own CI job (make lint /
# make lint-json) so analyzer findings are visible at a glance.
check: vet fmt build race replay bench-trace

vet:
	$(GO) vet ./...

fmt:
	@diff=$$(gofmt -d .); if [ -n "$$diff" ]; then \
		echo "gofmt needed:"; echo "$$diff"; exit 1; fi

build:
	$(GO) build ./...

# lint runs the project analyzers (clockcheck, eventguard, lockfield,
# maporder, metriclabel, replaysafe) and the whole-program
# lock-acquisition-order check against the committed ORDER.golden, all
# on one source load of the module. See README "Static analysis".
lint: bin/p2plint
	./bin/p2plint

# lint-json emits the same findings as a sorted JSON array for CI
# artifacts and tooling; exit 1 on findings.
lint-json: bin/p2plint
	./bin/p2plint -json

# lockorder-golden regenerates internal/lint/lockorder/ORDER.golden
# after a reviewed locking change (a new mutex, a new nesting, a
# re-ranked order). CI fails until the refreshed golden is committed.
lockorder-golden: bin/p2plint
	./bin/p2plint -lockorder -write

# loc prints the net Go line count the ROADMAP tracks: every tracked
# .go file that is not a test.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | xargs cat | wc -l

bin/p2plint: FORCE
	$(GO) build -o bin/p2plint ./cmd/p2plint

.PHONY: FORCE
FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection tests: severed RM links across real TCP
# transports, blackholed dial targets, circuit-breaker recovery. Always
# race-enabled; these tests exist to catch cross-goroutine bugs.
chaos:
	$(GO) test -race -run 'Chaos|Failover' -count=1 ./internal/live/...

# fuzz-wire exercises the live transport's inbound frame path with
# random byte streams (varint frames, codec payloads, credit grants,
# retired frame kinds), then the DHT RPC messages through the codec
# round-trip. FuzzWireFrame drives the same inbound path from
# framing-level seeds; plain go test (and CI) runs its seed corpus.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzWireCodec -fuzztime 30s ./internal/live/
	$(GO) test -run '^$$' -fuzz FuzzDHTMessages -fuzztime 30s ./internal/proto/

# fuzz-scenario feeds random bytes to the scenario file's YAML parser
# and to the spec decoder behind scenario.Parse (FuzzParseYAML checks
# both), seeded with every committed scenario and rejection case.
fuzz-scenario:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 60s ./internal/scenario/

# replay is the flight-recorder gate: the record/replay round-trip
# property tests under the race detector (a chaos recording replays to
# an identical trace; corrupted logs report the divergence point, never
# panic), twenty more runs of the recording-cut test (recording stopped
# at a random instant under traffic must still replay cleanly), then a
# CLI smoke — a founder p2pnode records two seconds of live heartbeats,
# is SIGTERM-flushed, and the log replays cleanly through p2psim's
# deterministic scheduler.
replay: bin/p2pnode bin/p2psim
	$(GO) test -race -count=1 ./internal/replay/
	$(GO) test -race -count=20 -run TestReplayStopRecordMidRun ./internal/replay/
	rm -rf bin/replay-smoke
	./bin/p2pnode -id 0 -founder -listen 127.0.0.1:0 -record bin/replay-smoke & \
	pid=$$!; sleep 2; kill -TERM $$pid; \
	while kill -0 $$pid 2>/dev/null; do sleep 0.1; done; \
	./bin/p2psim -replay bin/replay-smoke

# obs is the fleet-observability smoke: two p2pnode daemons joined over
# real TCP with a shared -seed, a cross-node session (the object lives
# on the founder, the joiner consumes it), then one p2ptop scrape of
# both diagnostics endpoints. The -check gate fails unless the merged
# view contains at least one stitched cross-node session span and a
# non-empty fleet allocation-latency p99.
obs: bin/p2pnode bin/p2ptop
	./bin/p2pnode -id 0 -founder -listen 127.0.0.1:7461 -http 127.0.0.1:9461 \
		-book "1=127.0.0.1:7462" -object movie:30 -seed 7 & pa=$$!; \
	./bin/p2pnode -id 1 -listen 127.0.0.1:7462 -http 127.0.0.1:9462 \
		-book "0=127.0.0.1:7461" -bootstrap 0 -seed 7 \
		-submit movie -after 2s -linger 60s & pb=$$!; \
	sleep 8; \
	./bin/p2ptop -nodes http://127.0.0.1:9461,http://127.0.0.1:9462 -once -check; \
	rc=$$?; kill $$pa $$pb 2>/dev/null; wait $$pa $$pb 2>/dev/null; exit $$rc

# dht is the structured-discovery smoke: two p2pnode daemons on the DHT
# backend joined over real TCP, then a scrape of both /dht endpoints.
# The gate fails unless both report Backend "dht" and the founder's
# routing table has learned at least one contact.
dht: bin/p2pnode
	./bin/p2pnode -id 0 -founder -discovery dht -listen 127.0.0.1:7463 -http 127.0.0.1:9463 \
		-book "1=127.0.0.1:7464" -object movie:30 -seed 7 & pa=$$!; \
	./bin/p2pnode -id 1 -discovery dht -listen 127.0.0.1:7464 -http 127.0.0.1:9464 \
		-book "0=127.0.0.1:7463" -bootstrap 0 -seed 7 & pb=$$!; \
	sleep 6; rc=0; \
	curl -sf http://127.0.0.1:9463/dht | grep -q '"Backend": *"dht"' || rc=1; \
	curl -sf http://127.0.0.1:9463/dht | grep -q '"TableSize": *[1-9]' || rc=1; \
	curl -sf http://127.0.0.1:9464/dht | grep -q '"Backend": *"dht"' || rc=1; \
	kill $$pa $$pb 2>/dev/null; wait $$pa $$pb 2>/dev/null; \
	[ $$rc -eq 0 ] && echo "dht smoke: ok"; exit $$rc

# scenario runs the committed chaos suite: every file in scenarios/ on
# the deterministic simulator (JSON reports land in
# bin/scenario-reports/), then the two-daemon TCP smoke — the same
# tcp-smoke.yaml split across two real p2pnode processes
# (-scenario-part 0/2 and 1/2). p2ptop -scenario re-checks the
# collected reports and fails if any verdict is FAIL.
scenario: bin/p2psim bin/p2pnode bin/p2ptop
	rm -rf bin/scenario-reports && mkdir -p bin/scenario-reports
	@set -e; for f in scenarios/*.yaml; do \
		name=$$(basename $$f .yaml); \
		echo "== $$f (sim)"; \
		./bin/p2psim -scenario $$f -scenario-report bin/scenario-reports/$$name.sim.json; \
	done
	@echo "== scenarios/tcp-smoke.yaml (live, 2 daemons)"; \
	./bin/p2pnode -scenario scenarios/tcp-smoke.yaml -scenario-part 0/2 \
		-scenario-peers "127.0.0.1:7471,127.0.0.1:7472" -scenario-pace 2 \
		-scenario-report bin/scenario-reports/tcp-smoke.live0.json & pa=$$!; \
	./bin/p2pnode -scenario scenarios/tcp-smoke.yaml -scenario-part 1/2 \
		-scenario-peers "127.0.0.1:7471,127.0.0.1:7472" -scenario-pace 2 \
		-scenario-report bin/scenario-reports/tcp-smoke.live1.json; \
	rb=$$?; wait $$pa; ra=$$?; [ $$ra -eq 0 ] && [ $$rb -eq 0 ]
	./bin/p2ptop -scenario bin/scenario-reports/*.json

bin/p2ptop: FORCE
	$(GO) build -o bin/p2ptop ./cmd/p2ptop

bin/p2pnode: FORCE
	$(GO) build -o bin/p2pnode ./cmd/p2pnode

bin/p2psim: FORCE
	$(GO) build -o bin/p2psim ./cmd/p2psim

bench-trace:
	$(GO) test -run '^$$' -bench 'SimulatedSession|TraceDisabled' \
		-benchmem -benchtime 50x .

# bench is the Quick regression gate (CI smoke job), eight ratchets: the
# Figure-3 allocation hot path (min of 3 runs), then the wire-codec
# encode/decode benchmarks, the TCP delivery benchmark (the
# wire-protocol-v2 ratchet: msgs/sec/core and allocs/msg), the DHT
# provider lookup, the sim engine's RPC-timeout pattern and its
# periodic-upkeep mix, the RM's gossip round and one simulated session
# end to end (min of 5 runs each), compared against the latest
# committed snapshot in bench/.
# Fails on a >50% ns/op or allocs/op regression; writes
# bench/BENCH_<today>.json on success (snapshots merge by benchmark
# name, so the seven invocations share one file). All eight run with a
# 50% tolerance rather than the tool's default 20%: they time
# micro-scale operations where shared-runner timer noise exceeds 20%
# (observed min-of-N spread on a 1-core runner), and the regression
# class they guard against — a reflection-based encoder creeping back
# onto the wire path, an allocation landing on the per-message hot path,
# a routing-table sort returning to every DHT RPC, cancelled timers
# piling up in the event queue, periodic timers paying a whole-queue
# heap pop again, the RM re-hashing its catalog into fresh
# Bloom filters every round, a closure creeping back onto netsim's
# delivery or timer path — shows up as 2-100x, not 1.2x. The
# WireCodec gob-baseline rows time a test-only gob encoder kept as
# context for the codec rows.
bench: bin/p2pbench
	./bin/p2pbench -regress -regress-bench AllocationFigure3 -regress-count 3 \
		-regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/proto -regress-bench WireCodec \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/replay -regress-bench 'Deliver/tcp' \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/dht -regress-bench DHTLookup \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/sim -regress-bench 'Engine(Timers|Upkeep)' \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/core -regress-bench RMGossipRound \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-bench SimulatedSession \
		-regress-count 5 -regress-tolerance 0.5

# bench-all snapshots every root benchmark (min of 5 runs) plus the
# codec, delivery, DHT lookup, engine-timer and -upkeep, gossip-round
# and simulated-session ratchets;
# use this to refresh the committed baseline after intentional
# performance changes.
bench-all: bin/p2pbench
	./bin/p2pbench -regress -regress-count 5 -regress-benchtime 1s
	./bin/p2pbench -regress -regress-pkg ./internal/proto -regress-bench WireCodec \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/replay -regress-bench 'Deliver/tcp' \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/dht -regress-bench DHTLookup \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/sim -regress-bench 'Engine(Timers|Upkeep)' \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-pkg ./internal/core -regress-bench RMGossipRound \
		-regress-count 5 -regress-tolerance 0.5
	./bin/p2pbench -regress -regress-bench SimulatedSession \
		-regress-count 5 -regress-tolerance 0.5

bin/p2pbench: FORCE
	$(GO) build -o bin/p2pbench ./cmd/p2pbench
