// Package obs is the observability layer of the reproduction: a
// zero-dependency (stdlib-only) home for
//
//   - a process-wide metrics Registry (atomic counters, gauges, and
//     bounded latency histograms with p50/p95/p99), published on demand
//     via expvar and a JSON endpoint (see StartDebugServer);
//   - an optional per-query QueryTrace that records, per index level,
//     the simulated seek/transfer/CPU cost, the scheduler's batch
//     decisions, pages scheduled vs. pruned, candidate and refinement
//     counts, and buffer-pool hits — the raw material behind
//     `iqtool -trace` and the paper's T1st/T2nd/T3rd decomposition.
//
// Observation is strictly opt-in: the store session carries a
// nil-checked *QueryTrace, so with no trace attached the query path pays
// one nil check per cost event and nothing else (see
// BenchmarkObserverOverhead and BENCH_obs.json).
package obs

// CPUKind classifies a CPU charge for tracing.
type CPUKind uint8

// The CPU charge kinds mirrored from the store session.
const (
	// CPUOther is an uncategorized CPU charge.
	CPUOther CPUKind = iota
	// CPUDist is the cost of exact distance computations.
	CPUDist
	// CPUApprox is the cost of decoding and bounding approximations.
	CPUApprox
)

// String returns the kind's short label.
func (k CPUKind) String() string {
	switch k {
	case CPUDist:
		return "dist"
	case CPUApprox:
		return "approx"
	default:
		return "other"
	}
}

// ReadTier tells a trace which layer served a read.
type ReadTier uint8

const (
	// ReadBackend is a read charged against the raw backend (no pool).
	ReadBackend ReadTier = iota
	// ReadPoolMiss is a backend read performed because the buffer pool
	// did not hold the blocks (charged like a backend read).
	ReadPoolMiss
	// ReadPoolHit reports blocks served from the buffer pool; hits
	// charge zero simulated seek/transfer time.
	ReadPoolHit
)
