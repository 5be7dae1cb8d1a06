package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a request, recorded from the bench's own
// code around the calls into each layer. Times are nanoseconds since the
// recorder started.
//
// The names, parent first:
//
//	client.knn, client.write  one per client operation (the request)
//	client.lock               ingest-mixed: waiting for the client's own
//	                          read/write lock
//	engine.wait               time in the engine outside its service time
//	shard.scatter             the coordinator's Submit (shard-scatter)
//	core.query                the engine's service time (Result.Wall),
//	                          one per queried shard on shard-scatter
//	store                     one backend call at the storage boundary
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`   // store spans: read, append, write, set, truncate, create, remove, sync
	Kind   string `json:"kind,omitempty"` // store spans: file kind ("all" for sync)
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of one traced pass in memory. A nil *recorder
// records nothing, so the untraced pass runs the same code.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	active []int64 // requests executing inside the program right now
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// enter and leave bracket the part of a request that runs inside the
// program. Store spans are attributed to a request only while it is the
// only one inside.
func (r *recorder) enter(req int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.active = append(r.active, req)
	r.mu.Unlock()
}

func (r *recorder) leave(req int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i, a := range r.active {
		if a == req {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

func (r *recorder) storeSpan(shard int, op, kind string, bytes, t0 int64) {
	if r == nil {
		return
	}
	t1 := r.now()
	r.mu.Lock()
	var req int64
	if len(r.active) == 1 {
		req = r.active[0]
	}
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Req: req, Name: "store", Op: op, Kind: kind,
		Shard: shard, Start: t0, End: t1, Bytes: bytes})
	r.mu.Unlock()
}

// add records a span and returns its ID.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// request records the spans of one finished client operation that ran
// from start to end and held the client's own lock from locked on. wall
// is the engine's (or coordinator's) own measure of the same operation;
// shardWalls, when non-nil, are the service times of the queried shards.
func (r *recorder) request(req int64, name string, start, locked, end int64, wall time.Duration, shardWalls []time.Duration) {
	if r == nil {
		return
	}
	root := r.add(span{Req: req, Name: name, Start: start, End: end})
	if locked > start {
		r.add(span{Parent: root, Req: req, Name: "client.lock", Start: start, End: locked})
	}
	inner := end - int64(wall)
	if inner < locked {
		inner = locked
	}
	if shardWalls == nil {
		r.add(span{Parent: root, Req: req, Name: "engine.wait", Start: locked, End: inner})
		r.add(span{Parent: root, Req: req, Name: "core.query", Start: inner, End: end})
		return
	}
	// The coordinator does not expose when each shard's service began, so
	// every shard span is placed to end with the scatter; the scatter's self
	// time is then its wall time minus the slowest shard.
	sc := r.add(span{Parent: root, Req: req, Name: "shard.scatter", Start: inner, End: end})
	for i, w := range shardWalls {
		if w <= 0 {
			continue
		}
		s := end - int64(w)
		if s < inner {
			s = inner
		}
		r.add(span{Parent: sc, Req: req, Name: "core.query", Shard: i, Start: s, End: end})
	}
}

// finish links every attributed store span to the core.query span of its
// request and shard, and returns the spans with their self times.
func (r *recorder) finish() ([]span, []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct {
		req   int64
		shard int
	}
	core := map[key]int64{}
	for _, s := range r.spans {
		if s.Name == "core.query" {
			core[key{s.Req, s.Shard}] = s.ID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name == "store" && s.Req != 0 {
			s.Parent = core[key{s.Req, s.Shard}]
		}
	}
	return r.spans, selfTimes(r.spans)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := childrenOf(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[s.ID], spans)
	}
	return self
}

func childrenOf(spans []span) map[int64][]int {
	kids := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []int, spans []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			n += x[1] - end
			end = x[1]
		}
	}
	return n
}

// spanViolations counts spans whose children take longer than the span
// itself: their summed durations for sequential children, the longest one
// for the parallel shard spans under a scatter.
func spanViolations(spans []span) int {
	kids := childrenOf(spans)
	bad := 0
	for _, s := range spans {
		var sum, max int64
		for _, k := range kids[s.ID] {
			d := spans[k].dur()
			sum += d
			if d > max {
				max = d
			}
		}
		if s.Name == "shard.scatter" {
			sum = max
		}
		if sum > s.dur() {
			bad++
		}
	}
	return bad
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
