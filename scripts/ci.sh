#!/bin/sh
# ci.sh — the checks every change must pass, in the order they fail fastest.
# Run from the repository root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== bench module =="
# bench/ is its own Go module, so go test ./... stops at its boundary; a
# change that breaks an API it uses (shard, store, engine, core) must
# fail here, not in bench/run.sh.
(cd bench && go vet ./... && go test ./...)

echo "== read planning stays in core =="
# The engine advances queries through index.SharedScan rounds; planning
# reads (internal/pagesched) is the index's job, in one place.
if go list -f '{{join .Imports " "}}' ./internal/engine | grep -q 'internal/pagesched'; then
	echo "internal/engine imports internal/pagesched" >&2
	exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race =="
# internal/core alone needs ~10 min under race on a single-core host,
# right at the default 10m per-binary timeout; give it headroom.
go test -race -timeout 1800s ./...

echo "== WAL recovery repeat =="
# Recovery once lost acknowledged records only for some commit layouts;
# repeat the WAL suite so a layout-dependent regression cannot hide.
go test -count=20 -run TestWAL ./internal/store/

echo "== figures golden =="
# The simulated-time figure series are deterministic: any change to
# planning, page accounting or refinement cost shows up as a diff against
# the committed CI-scale golden.
go run ./cmd/iqbench -fig all -scale 0.02 -queries 10 -csv /tmp/f.csv > /dev/null
cmp /tmp/f.csv results/figures_ci.csv

echo "== fuzz seed corpus =="
# The bit-flip corpus must keep passing in normal runs: a single flipped
# bit anywhere on disk may change a KNN answer only into a typed error.
go test -run 'FuzzBitFlipKNN' ./internal/core/

echo "== engine scaling gate =="
go run ./cmd/iqbench -fig scaling -scale 0.05 -queries 40 -gate

echo "== scan sharing gate =="
# Cross-query scan sharing must earn its keep on the hot workload:
# >= 1.3x aggregate simulated QPS at 32 concurrent clients, each fetched
# page feeding > 1 query on average, and no single-client p99 regression
# beyond 10% (with one query in flight the shared plan degenerates to
# the share-nothing batch schedule exactly).
go run ./cmd/iqbench -fig sharing -scale 0.2 -queries 128 -gate

echo "== shard scale-out + self-healing gate =="
# Sharded scatter-gather must scale out, stay exact, and heal itself:
# >= 3x aggregate simulated QPS at 8 shards over 1, every merged answer
# bit-identical to the single-shard answer, and the seeded chaos
# campaign (one replica's directory corrupted at rest, another replica
# killed mid-batch, live writes throughout) losing zero queries,
# changing zero answers vs an untouched twin, rebuilding both victims
# from copies of their siblings, converging back to all-Serving, and
# doing so within the 30s MTTR budget.
go run ./cmd/iqbench -fig shards -scale 0.05 -queries 42 -gate

echo "== kill-and-recover gate =="
# No acknowledged write may be lost: the recovery suite crash-reopens
# WAL-mode trees (insert-heavy, delete-heavy, torn tail, across
# checkpoints, mid- and post-incremental-reoptimize) and requires the
# recovered tree byte-identical to a never-crashed twin.
go test -run 'KillAndRecover' -count=1 ./internal/core/

echo "== durable ingest gate =="
# The write path must not starve reads: after a concurrent acked-write
# burst, simulated p99 of KNN reads while the incremental reoptimizer
# steps must stay within 2x the quiescent simulated p99 (readers keep
# their pinned snapshots, so compaction must not show up in their I/O).
go run ./cmd/iqbench -fig ingest -scale 0.1 -queries 60 -gate

echo "== approximate search gate =="
# The probability-bounded recall/latency dial must earn its keep on the
# high-dimensional workload: the MinRecall sweep a monotone Pareto
# frontier, recall exactly 1.0 at the exact-degenerate setting (ε = 0),
# and some setting reaching >= 1.5x the exact simulated QPS while
# keeping measured recall >= 0.95.
go run ./cmd/iqbench -fig approx -queries 30 -gate

echo "== chaos gate =="
# Seeded fault-injection campaign: transient faults fully retried,
# corruption fully quarantined and repaired (results identical to the
# clean run), overload shed, and checksum overhead within 5% of the
# plain clean path.
go run ./cmd/iqbench -fig faults -scale 0.1 -queries 40 -gate

echo "== observer overhead gate =="
# The bound is 5% of one query. The filter kernels made the untraced
# query ~10x faster, so this is a tighter absolute budget (~55us) than
# the original 2%-of-11.6ms gate; 2% of the current ~1.1ms op is below
# single-core host noise, hence the relative bound moved. The benchmark
# times untraced and traced samples in interleaved pairs and reports the
# median of the per-pair ratios, so host drift cannot fail the gate.
go test -run '^$' -bench 'BenchmarkObserverOverhead' -benchtime 40x . |
	awk '
		/^BenchmarkObserverOverhead/ { for (i = 2; i <= NF; i++) if ($i == "on/off") ratio = $(i - 1) }
		END {
			if (!ratio) { print "gate: missing benchmark output" > "/dev/stderr"; exit 1 }
			printf "observer on/off median pair ratio: %.4f\n", ratio
			if (ratio > 1.05) {
				printf "observer overhead gate FAILED: %.1f%% > 5%%\n", (ratio - 1) * 100 > "/dev/stderr"
				exit 1
			}
		}'

echo "== kernel filter gate =="
go test -run '^$' -bench 'BenchmarkQuantizedFilter' -benchtime 200x -count 3 ./internal/kernel |
	awk '
		/BenchmarkQuantizedFilter\/naive/  { if (!mn || $3 < mn) mn = $3 }
		/BenchmarkQuantizedFilter\/kernel/ { if (!mk || $3 < mk) mk = $3 }
		END {
			if (!mn || !mk) { print "gate: missing benchmark output" > "/dev/stderr"; exit 1 }
			ratio = mn / mk
			printf "kernel vs naive filter speedup: %.2fx\n", ratio
			if (ratio < 2) {
				printf "kernel filter gate FAILED: %.2fx < 2x\n", ratio > "/dev/stderr"
				exit 1
			}
		}'

echo "== KNN steady-state alloc gate =="
go test -run '^$' -bench 'BenchmarkKNNHotPath/KNNInto' -benchtime 50x ./internal/core |
	awk '
		/BenchmarkKNNHotPath\/KNNInto/ {
			found = 1
			for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1)
		}
		END {
			if (!found) { print "gate: missing benchmark output" > "/dev/stderr"; exit 1 }
			printf "steady-state KNNInto allocs/op: %s\n", allocs
			if (allocs + 0 != 0) {
				print "alloc gate FAILED: want 0 allocs/op" > "/dev/stderr"
				exit 1
			}
		}'

echo "CI OK"
