#!/bin/sh
# ci.sh — the checks every change must pass, in the order they fail fastest.
# Run from the repository root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

# Scratch files live in a private directory, so two runs cannot
# overwrite each other's output.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
# The engine calls the index's query methods; planning reads
# (internal/pagesched) is the index's job, in one place.
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

echo "== engine admission repeat =="
# Submit, SubmitBatch and SubmitWrite share one admission path, which
# holds the close lock through its send; repeat the admission and close
# tests under the race detector so an ordering bug between a submission
# and Close, on either lane, cannot hide in one lucky schedule.
go test -race -count=10 -run 'TestEngine(SubmitCloseRace|ClosingVisibleDuringClose|CloseSemantics|LoadShedding|ContextCancellation|QueryValidation|RejectsWrongDimension.*)$|TestSubmitWrite' ./internal/engine/

echo "== self-healing repeat =="
# A drained replica has one way back, a rebuild from a scrubbed peer
# copy, raced by live queries, writes and Close; repeat the repairer's
# tests under the race detector so a lifecycle race cannot hide in one
# lucky schedule.
go test -race -count=5 -run 'TestHeal|TestShardChaos|TestStatusLag' ./internal/shard/

echo "== build determinism repeat =="
# Bulk-load planning runs the halves of its splits and its per-range and
# per-query loops on up to GOMAXPROCS goroutines, and one plan writes
# several stores; repeat the schedule-independence and plan tests under
# the race detector so an order bug between workers cannot hide in one
# lucky schedule. Every such loop but the split fork is par.For: repeat
# its own test too. The shard layer plans each shard once for all its
# replicas, concurrently, and Centroid assigns on several goroutines:
# repeat the replica-build and Centroid schedule tests the same way.
# The build-files golden pins every byte a build writes and the frames
# a pool attached before the build keeps, and the reoptimize-files
# golden the same after streams of rewrites under auto-reoptimization;
# repeat both with them.
go test -race -count=5 -run 'TestForRunsEachIndexOnce' ./internal/par/
go test -race -count=5 -run 'TestBuildIndependentOfSchedule|TestPlanBuild|TestBuildFilesGolden|TestReoptimizeFilesGolden' ./internal/core/
go test -race -count=5 -run 'TestNewBuildsReplicasConcurrently|TestCentroidIndependentOfSchedule' ./internal/shard/

echo "== WAL recovery repeat =="
# Every record starts on a block boundary, so a log has one layout
# whatever its commits; the repeat guards torn tails and LSN order.
# Concurrent committers are the only traffic that puts several frames
# in one flush, so their test also runs under the race detector.
go test -count=20 -run TestWAL ./internal/store/
go test -race -count=10 -run TestWALGroupCommit ./internal/store/

echo "== figures golden =="
# The simulated-time figure series are deterministic: any change to
# planning, page accounting or refinement cost shows up as a diff against
# the committed CI-scale golden.
go run ./cmd/iqbench -fig all -scale 0.02 -queries 10 -csv "$tmp/f.csv" > /dev/null
cmp "$tmp/f.csv" results/figures_ci.csv

echo "== fuzz seed corpus =="
# The bit-flip corpus must keep passing in normal runs: a single flipped
# bit anywhere on disk may change a KNN answer only into a typed error.
go test -run 'FuzzBitFlipKNN' ./internal/core/

echo "== engine scaling gate =="
go run ./cmd/iqbench -fig scaling -scale 0.05 -queries 40 -gate

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

echo "== shard pruning gate =="
# A KNN asks the shards whose bounding box is nearest to the query
# first, then only the other shards whose box lies within the merged
# k-th distance. On a 4-shard Centroid fleet over 40,000 clustered CAD
# points this must bring the mean simulated KNN latency to <= 0.9x that
# of asking every shard at once (measured 0.79x) with < 4 shards asked
# per query, and must cost a RoundRobin fleet, whose boxes all cover the
# data, no more than 2% (measured 1.00x).
go test -run 'TestShardPruningCutsLatency' -count=1 -v ./internal/shard/

echo "== write-through pool gate =="
# A read after a write must not pay to fetch what the writer just wrote.
# With the pool attached after the build, a KNN at a freshly inserted
# point must read the directory with 0 seeks and 0 backend blocks and
# find the rewritten page's quantized and exact blocks in the pool, and
# a KNN after Reoptimize must read no backend block of the new
# generation's files. Exact pages give way first: with a pool that holds
# the directory and quantized files but under a quarter of the exact
# file, no KNN through inserts, deletes and two reoptimization swaps may
# read a directory or quantized block from the backend, and an exact
# page version an insert superseded must be gone from the pool. The pool
# must stay coherent with writes: random mutation sequences (Forget and
# an evict-first file included) against a shadow model, and readers
# racing a writer, repeated under the race detector, with the two-list
# eviction and Forget tests.
go test -run 'TestWritesKeepPoolWarm|TestPoolKeepsUpperLevels' -count=1 -v ./internal/core/
go test -race -count=10 -run 'TestPoolCoherence|TestPoolEvictFirstList|TestPoolForget|TestPoolDropsFindBothLists' ./internal/store/

echo "== kill-and-recover gate =="
# No acknowledged write may be lost: the recovery suite crash-reopens
# WAL-mode trees (insert-heavy, delete-heavy, torn tail, across
# checkpoints, mid- and post-incremental-reoptimize, and under the
# auto-reoptimize policy) and requires the recovered tree byte-identical
# to a never-crashed twin.
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
# The benchmark times the naive and kernel filters in interleaved pairs,
# alternating which runs first, and reports the median of the per-pair
# naive/kernel ratios, so host drift cannot fail the gate.
go test -run '^$' -bench 'BenchmarkQuantizedFilter' -benchtime 200x ./internal/kernel |
	awk '
		/^BenchmarkQuantizedFilter/ { for (i = 2; i <= NF; i++) if ($i == "naive/kernel") ratio = $(i - 1) }
		END {
			if (!ratio) { print "gate: missing benchmark output" > "/dev/stderr"; exit 1 }
			printf "kernel vs naive filter median pair speedup: %.2fx\n", ratio
			if (ratio < 2) {
				printf "kernel filter gate FAILED: %.2fx < 2x\n", ratio > "/dev/stderr"
				exit 1
			}
		}'

echo "== D_F estimate gate =="
# Every build estimates the fractal dimension from 2.1 M pair distances
# of a 2,048-point sample but reads only the smallest 5%; ordering just
# those keeps a full sort (~0.4 s, most of a small build) from coming
# back. Same statistic as the kernel gate: the median of interleaved
# pair ratios.
go test -run '^$' -bench 'BenchmarkCorrelationDimension' -benchtime 1x ./internal/fractal |
	awk '
		/^BenchmarkCorrelationDimension/ { for (i = 2; i <= NF; i++) if ($i == "fullsort/select") ratio = $(i - 1) }
		END {
			if (!ratio) { print "gate: missing benchmark output" > "/dev/stderr"; exit 1 }
			printf "D_F estimate select vs full sort median pair speedup: %.2fx\n", ratio
			if (ratio < 2) {
				printf "D_F estimate gate FAILED: %.2fx < 2x\n", ratio > "/dev/stderr"
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
