package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

const (
	dim       = 16
	k         = 10
	minRecall = 0.9
	clients   = 2 // closed-loop client goroutines, never more than the host's CPUs
)

// spec is one workload. All load is closed-loop: each client waits for
// its answer before it sends the next request.
type spec struct {
	name, why string
	data      dataset.Name
	n         int     // base points
	queries   int     // distinct query points, cycled in a seeded order
	rate      float64 // operations per second of -seconds: the run's fixed size
	cacheMiB  int64   // buffer pool of each store
	checksums bool
	every     int  // compare 1 in every distinct queries with the oracle (read-only workloads)
	approx    bool // odd operations ask for MinRecall 0.9
	workers   int  // engine workers (per replica on shard-scatter)
	shards    int  // 0: one tree behind one engine
	replicas  int
	ingest    bool // one client writes, the other reads until it is done
}

// rate is the number of operations one second of -seconds buys. The
// values hold a run near -seconds on a 2-CPU host; both commits of a
// comparison do the same number of operations whatever their speed.
var workloads = []spec{
	{
		name: "uniform-hot", data: dataset.Uniform, n: 100_000, queries: 256, rate: 120, cacheMiB: 64,
		every: 1, approx: true, workers: 2,
		why: "UNIFORM 16-d whose index fits the 64 MiB pool: time goes to the quantized filter and refinement, and the approximate half to the recall dial",
	},
	{
		name: "clustered-cold", data: dataset.CAD, n: 300_000, queries: 2048, rate: 450, cacheMiB: 3, checksums: true,
		every: 8, workers: 2,
		why: "clustered CAD 16-d, index 8x the 3 MiB pool, CRC sidecars on: pool misses, backend reads and checksums",
	},
	{
		name: "ingest-mixed", data: dataset.CAD, n: 100_000, queries: 1024, rate: 60, cacheMiB: 16,
		workers: 2, ingest: true,
		why: "durable writes beside exact reads on one WAL tree, then a crash and recovery: WAL, write lane, copy-on-write pages, reoptimization",
	},
	{
		name: "shard-scatter", data: dataset.CAD, n: 100_000, queries: 1024, rate: 240, cacheMiB: 16,
		every: 8, workers: 1, shards: 4, replicas: 2,
		why: "4 Centroid shards x 2 replicas, each with its own file store: coordinator scatter, merge and straggler shards",
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runOpts parameterizes one pass of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int    // setups timed for setup_s; the median is reported
	work    string // scratch directory for the stores
	ops     int    // overrides rate*seconds when > 0
	n       int    // overrides the base point count when > 0
	queries int    // overrides the distinct query count when > 0
}

// passResult is what one pass measured.
type passResult struct {
	values    map[string]float64
	counts    map[string]int // samples behind each value
	attempted int
	failed    int
	wrong     int
	spans     []span
}

func (r *passResult) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// system is one workload's serving stack: a tree behind an engine, or a
// shard coordinator over per-replica stores.
type system struct {
	dir    string
	stores []*recStore
	stos   []*store.Store
	eng    *engine.Engine
	coord  *shard.Coordinator
}

func setup(sp spec, dir string, db []vec.Point, seed int64) (*system, error) {
	sys := &system{dir: dir}
	if sp.shards > 0 {
		cfg := shard.Config{
			Shards: sp.shards, Replicas: sp.replicas, Workers: sp.workers,
			Partitioner: shard.Centroid{Seed: seed},
			NewStore: func(si, ri int) (*store.Store, error) {
				rs, err := newRecStore(filepath.Join(dir, fmt.Sprintf("s%dr%d", si, ri)), nil, si, false)
				if err != nil {
					return nil, err
				}
				sto := store.Wrap(rs)
				sto.SetCache(sp.cacheMiB << 20)
				sys.stores = append(sys.stores, rs)
				sys.stos = append(sys.stos, sto)
				return sto, nil
			},
		}
		c, err := shard.New(cfg, db)
		if err != nil {
			return nil, errors.Join(err, sys.close())
		}
		sys.coord = c
		for _, sto := range sys.stos {
			if err := sto.Sync(); err != nil {
				return nil, errors.Join(err, sys.close())
			}
		}
		return sys, nil
	}
	rs, err := newRecStore(dir, nil, 0, sp.ingest)
	if err != nil {
		return nil, err
	}
	sto := store.Wrap(rs)
	sys.stores, sys.stos = []*recStore{rs}, []*store.Store{sto}
	if sp.checksums {
		if err := sto.EnableChecksums(); err != nil {
			return nil, errors.Join(err, sys.close())
		}
	}
	opt := core.DefaultOptions()
	var eopts []engine.Option
	if sp.ingest {
		opt.WAL = true
		opt.WALCheckpointBlocks = 256
		opt.AutoReoptimize = core.AutoReoptPolicy{GarbageRatio: 0.5}
		eopts = append(eopts, engine.WithWrites())
	}
	tree, err := core.Build(sto, db, opt)
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	if err := sto.Sync(); err != nil {
		return nil, errors.Join(err, sys.close())
	}
	sto.SetCache(sp.cacheMiB << 20)
	sys.eng = engine.New(sto, tree, sp.workers, eopts...)
	return sys, nil
}

func (s *system) close() error {
	if s.coord != nil {
		s.coord.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	var errs []error
	for _, sto := range s.stos {
		errs = append(errs, sto.Close())
	}
	return errors.Join(errs...)
}

// readOut is one k-NN answer with what the layers measured of it.
type readOut struct {
	nbs        []vec.Neighbor
	err        error
	wall       time.Duration // engine service time, or coordinator Submit time
	sim        float64       // simulated seconds (slowest shard on shard-scatter)
	traces     []*obs.QueryTrace
	shardWalls []time.Duration // per shard; nil without shards
	shardNbs   [][]vec.Neighbor
	failovers  int
}

func (s *system) knn(q engine.Query) readOut {
	if s.coord == nil {
		r := s.eng.Submit(q)
		return readOut{nbs: r.Neighbors, err: r.Err, wall: r.Wall, sim: r.SimTime, traces: []*obs.QueryTrace{r.Trace}}
	}
	r := s.coord.Submit(q)
	o := readOut{nbs: r.Neighbors, err: r.Err, wall: r.Wall, sim: r.SimTime, failovers: r.Failovers,
		shardWalls: make([]time.Duration, len(r.Shards))}
	for i, sr := range r.Shards {
		o.shardWalls[i] = sr.Wall
		o.traces = append(o.traces, sr.Trace)
		o.shardNbs = append(o.shardNbs, sr.Neighbors)
	}
	return o
}

// counters is a snapshot of the program's own counters, taken before
// and after the measured window.
type counters struct {
	pool                  store.PoolStats
	failures, sheds       int64 // summed over every engine
	walAppends, walFsyncs int64
}

func (s *system) counters() counters {
	c := counters{
		walAppends: obs.Default().Counter("wal.appends").Value(),
		walFsyncs:  obs.Default().Counter("wal.fsyncs").Value(),
	}
	for _, sto := range s.stos {
		if p := sto.Pool(); p != nil {
			ps := p.Stats()
			c.pool.Hits += ps.Hits
			c.pool.Misses += ps.Misses
			c.pool.Evictions += ps.Evictions
		}
	}
	engines := []*engine.Engine{s.eng}
	if s.coord != nil {
		engines = nil
		for si := 0; si < s.coord.Shards(); si++ {
			for ri := 0; ri < s.coord.Replicas(); ri++ {
				engines = append(engines, s.coord.Engine(si, ri))
			}
		}
	}
	for _, e := range engines {
		if e != nil {
			h := e.Health()
			c.failures += h.Failures
			c.sheds += h.Sheds
		}
	}
	return c
}

// writeOp is one planned write: a batch insert, or one delete.
type writeOp struct {
	del bool
	pts []vec.Point
	ids []uint32
}

// pass holds the inputs and the state of one pass.
type pass struct {
	sp  spec
	o   runOpts
	sys *system
	rec *recorder
	t0  time.Time

	qs     []vec.Point
	order  []int            // seeded order in which the distinct queries are asked
	want   [][]vec.Neighbor // oracle answers of the checked queries
	pts    []vec.Point      // the point of every ID, base and inserted
	live   []bool           // IDs present after every acknowledged write (nil: all)
	unsure []bool           // IDs whose write failed: present or not
	writes []writeOp

	lock *sync.RWMutex // ingest-mixed: the client orders its reads against its writes
	req  atomic.Int64
}

func (p *pass) now() int64 { return int64(time.Since(p.t0)) }

// coreAgg sums the QueryTrace fields of a set of queries.
type coreAgg struct {
	queries, pagesRead, pruned, candidates, refinements, refined     int
	degraded, batches, batchPages, batchPending, skipped, terminated int
	simDir, simQuant, simExact, distCPU, approxCPU                   float64
}

func (a *coreAgg) add(trs []*obs.QueryTrace) {
	a.queries++
	for _, t := range trs {
		if t == nil {
			continue
		}
		a.pagesRead += t.PagesRead
		a.pruned += t.PagesPruned
		a.candidates += t.Candidates
		a.refinements += t.Refinements
		a.refined += t.RefinedPoints
		a.degraded += t.DegradedReads
		a.skipped += t.SkippedPages
		if t.Terminated {
			a.terminated++
		}
		a.batches += len(t.Batches)
		for _, b := range t.Batches {
			a.batchPages += b.Pages()
			a.batchPending += b.Pending
		}
		for _, l := range t.Levels {
			ms := 1e3 * l.Time(t.SeekCost, t.XferCost)
			switch fileKind(l.File) {
			case "dir":
				a.simDir += ms
			case "quant":
				a.simQuant += ms
			case "exact":
				a.simExact += ms
			}
			a.distCPU += 1e3 * l.DistCPU
			a.approxCPU += 1e3 * l.ApproxCPU
		}
	}
}

// clientLog is what the clients saw, shared by them. Latencies are in
// milliseconds.
type clientLog struct {
	mu                 sync.Mutex
	ops, failed, wrong int

	exact, approx, sim   []float64
	wait, service        []float64
	write, writeWait     []float64
	writeService, recall []float64

	core, approxCore coreAgg

	shardQueries, fanout, useful, failovers int
	straggler                               float64
}

func ms(d int64) float64 { return float64(d) / 1e6 }

// read runs the i-th read of the pass and checks its answer.
func (p *pass) read(c *clientLog, i int) {
	qi := p.order[i%len(p.order)]
	q := engine.Query{Kind: engine.KNN, Point: p.qs[qi], K: k, Trace: p.rec != nil}
	approx := p.sp.approx && i%2 == 1
	if approx {
		q.MinRecall = minRecall
	}
	req := p.req.Add(1)
	start := p.now()
	locked := start
	if p.lock != nil {
		p.lock.RLock()
		defer p.lock.RUnlock()
		locked = p.now()
	}
	p.rec.enter(req)
	out := p.sys.knn(q)
	p.rec.leave(req)
	end := p.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if out.err != nil {
		c.failed++
		return
	}
	p.rec.request(req, "client.knn", start, locked, end, out.wall, out.shardWalls)
	lat := ms(end - start)
	if approx {
		c.approx = append(c.approx, lat)
		c.approxCore.add(out.traces)
		if !genuine(out.nbs, q.Point, p.pts, p.live) {
			c.wrong++
		} else if w := p.want[qi]; w != nil {
			c.recall = append(c.recall, recall(out.nbs, w))
		}
		return
	}
	c.exact = append(c.exact, lat)
	c.sim = append(c.sim, 1e3*out.sim)
	c.service = append(c.service, float64(out.wall)/1e6)
	if out.shardWalls == nil {
		c.wait = append(c.wait, ms(end-locked)-float64(out.wall)/1e6)
	} else {
		c.shardStats(out)
	}
	c.core.add(out.traces)
	switch w := p.want[qi]; {
	case p.live != nil: // reads beside writes: the answer must be genuine
		if !genuine(out.nbs, q.Point, p.pts, p.live) {
			c.wrong++
		}
	case w != nil:
		if !exact(out.nbs, w, q.Point, p.pts, nil) {
			c.wrong++
		}
	}
}

// shardStats records fanout, useful fanout and stragglers of one
// scatter-gather.
func (c *clientLog) shardStats(out readOut) {
	merged := make(map[uint32]bool, len(out.nbs))
	for _, n := range out.nbs {
		merged[n.ID] = true
	}
	var walls []float64
	for i, w := range out.shardWalls {
		if w <= 0 {
			continue
		}
		walls = append(walls, float64(w))
		for _, n := range out.shardNbs[i] {
			if merged[n.ID] {
				c.useful++
				break
			}
		}
	}
	c.shardQueries++
	c.fanout += len(walls)
	c.failovers += out.failovers
	if med := percentile(walls, 0.5); med > 0 { // percentile sorted walls
		c.straggler += walls[len(walls)-1] / med
	}
}

// write runs the j-th planned write under the client's write lock.
func (p *pass) write(c *clientLog, j int) {
	w := p.writes[j]
	kind := engine.WriteInsert
	if w.del {
		kind = engine.WriteDelete
	}
	req := p.req.Add(1)
	start := p.now()
	p.lock.Lock()
	defer p.lock.Unlock()
	locked := p.now()
	p.rec.enter(req)
	r := p.sys.eng.SubmitWrite(engine.Write{Kind: kind, Points: w.pts, IDs: w.ids})
	p.rec.leave(req)
	end := p.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if r.Err != nil {
		c.failed++
		for _, id := range w.ids {
			p.unsure[id] = true
		}
		return
	}
	for _, id := range w.ids {
		p.live[id] = !w.del
	}
	if w.del && r.Found != len(w.ids) {
		c.wrong++ // the planned victim was live, so the delete must find it
	}
	p.rec.request(req, "client.write", start, locked, end, r.Wall, nil)
	c.write = append(c.write, ms(end-start))
	c.writeWait = append(c.writeWait, ms(end-locked)-float64(r.Wall)/1e6)
	c.writeService = append(c.writeService, float64(r.Wall)/1e6)
}

// readers runs reads from..to-1 on the clients and returns their log.
func (p *pass) readers(from, to int) *clientLog {
	c := &clientLog{}
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
				p.read(c, i)
			}
		}()
	}
	wg.Wait()
	return c
}

// mixed runs the planned writes on one client while the other reads
// until the writes are done, at least once, starting at read index from.
func (p *pass) mixed(from int) *clientLog {
	c := &clientLog{}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := range p.writes {
			p.write(c, j)
		}
		done.Store(true)
	}()
	go func() {
		defer wg.Done()
		for i := from; i == from || !done.Load(); i++ {
			p.read(c, i)
		}
	}()
	wg.Wait()
	return c
}

// runPass runs one pass of a workload: inputs and oracle, the timed
// setups, a warm-up, the measured operations, then recovery and the
// correctness checks.
func runPass(sp spec, o runOpts, logf func(string, ...any)) (*passResult, error) {
	if o.n > 0 {
		sp.n = o.n
	}
	if o.queries > 0 {
		sp.queries = o.queries
	}
	ops := o.ops
	if ops <= 0 {
		ops = max(1, int(math.Round(sp.rate*o.seconds)))
	}
	res := &passResult{values: map[string]float64{}, counts: map[string]int{}}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", sp.name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs: base points, distinct queries and (ingest-mixed) the points
	// the writer inserts, all from the seed.
	p := &pass{sp: sp, o: o}
	rng := rand.New(rand.NewSource(o.seed))
	var sizes []int // per planned write: points inserted, or -1 for a delete
	inserted := 0
	if sp.ingest {
		for j := 0; j < ops; j++ {
			if rng.Intn(4) == 0 {
				sizes = append(sizes, -1)
				continue
			}
			m := 1 + rng.Intn(32)
			sizes = append(sizes, m)
			inserted += m
		}
	}
	all, err := dataset.Generate(sp.data, o.seed, sp.n+sp.queries+inserted, dim)
	if err != nil {
		return nil, err
	}
	db := all[:sp.n]
	p.qs = all[sp.n : sp.n+sp.queries]
	p.pts = append(append(make([]vec.Point, 0, sp.n+inserted), db...), all[sp.n+sp.queries:]...)
	p.order = rng.Perm(len(p.qs))
	if sp.ingest {
		p.live = make([]bool, len(p.pts))
		p.unsure = make([]bool, len(p.pts))
		for id := 0; id < sp.n; id++ {
			p.live[id] = true
		}
		dead := make([]bool, sp.n)
		next := sp.n
		for _, m := range sizes {
			if m < 0 {
				id := rng.Intn(sp.n)
				for dead[id] {
					id = rng.Intn(sp.n)
				}
				dead[id] = true
				p.writes = append(p.writes, writeOp{del: true, pts: []vec.Point{db[id]}, ids: []uint32{uint32(id)}})
				continue
			}
			w := writeOp{}
			for ; m > 0; m-- {
				w.pts = append(w.pts, p.pts[next])
				w.ids = append(w.ids, uint32(next))
				next++
			}
			p.writes = append(p.writes, w)
		}
		p.lock = &sync.RWMutex{}
	}

	// The oracle runs before setup and is timed on its own.
	t := time.Now()
	p.want = make([][]vec.Neighbor, len(p.qs))
	if !sp.ingest {
		var idx []int
		for qi := 0; qi < len(p.qs); qi += sp.every {
			idx = append(idx, qi)
		}
		bruteAll(p.pts, nil, p.qs, idx, k, p.want)
		res.set("bench.oracle_s", time.Since(t).Seconds(), len(idx))
	}

	var setupS []float64
	var heap0 uint64
	for s := 0; s < max(1, o.setups); s++ {
		if p.sys != nil {
			if err := p.sys.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(p.sys.dir); err != nil {
				return nil, err
			}
			p.sys = nil
		}
		heap0 = heapInuse()
		t := time.Now()
		if p.sys, err = setup(sp, filepath.Join(dir, fmt.Sprintf("setup%d", s)), db, o.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	res.set("setup_s", percentile(setupS, 0.5), len(setupS))
	logf("%s: setup %.2fs, %d ops", sp.name, percentile(setupS, 0.5), ops)

	// Warm-up: the pools fill and lazily built state settles. Reads only.
	warm := max(1, ops/10)
	p.t0 = time.Now()
	warmLog := p.readers(0, warm)
	res.attempted += warmLog.ops
	res.failed += warmLog.failed
	res.wrong += warmLog.wrong

	// The measured window.
	if o.trace {
		p.rec = newRecorder()
		for _, rs := range p.sys.stores {
			rs.rec = p.rec
		}
	}
	before := p.sys.counters()
	var mem0, mem1 runtime.MemStats
	var cpu0, cpu1 syscall.Rusage
	runtime.ReadMemStats(&mem0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0); err != nil {
		return nil, err
	}
	p.t0 = time.Now()
	if p.rec != nil {
		p.t0 = p.rec.t0
	}
	var c *clientLog
	if sp.ingest {
		c = p.mixed(warm)
	} else {
		c = p.readers(warm, warm+ops)
	}
	elapsed := time.Since(p.t0).Seconds()
	runtime.ReadMemStats(&mem1)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1); err != nil {
		return nil, err
	}
	for _, rs := range p.sys.stores {
		rs.rec = nil
	}
	res.attempted += c.ops
	res.failed += c.failed
	res.wrong += c.wrong
	res.set("bench.elapsed_s", elapsed, c.ops)
	res.set("heap_mb", float64(int64(heapInuse())-int64(heap0))/(1<<20), 1)

	res.set("knn_sim_ms", mean(c.sim), len(c.sim))
	cpuNs := cpu1.Utime.Nano() + cpu1.Stime.Nano() - cpu0.Utime.Nano() - cpu0.Stime.Nano()
	res.set("client.cpu_ms_per_op", float64(cpuNs)/1e6/float64(max(1, c.ops)), c.ops)
	res.set("client.alloc_kb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(max(1, c.ops)), c.ops)
	reads := len(c.exact) + len(c.approx)
	res.set("client.knn_qps", float64(reads)/elapsed, reads)
	res.set("client.knn_p50_ms", percentile(c.exact, 0.50), len(c.exact))
	res.set("client.knn_p95_ms", percentile(c.exact, 0.95), len(c.exact))
	res.set("client.approx_p50_ms", percentile(c.approx, 0.50), len(c.approx))
	shortfall := 0.0
	if len(c.recall) > 0 {
		shortfall = math.Max(0, minRecall-mean(c.recall))
	}
	res.set("client.approx_recall_shortfall", shortfall, len(c.recall))
	res.set("client.write_ops_s", float64(len(c.write))/elapsed, len(c.write))
	res.set("client.write_p50_ms", percentile(c.write, 0.50), len(c.write))
	res.set("client.write_p95_ms", percentile(c.write, 0.95), len(c.write))

	// Space, per replica, at the end of the run.
	live := sp.n
	if p.live != nil {
		live = count(p.live)
	}
	replicas := max(1, sp.replicas)
	var total int64
	byKind := map[string]int64{}
	for _, rs := range p.sys.stores {
		total += rs.bytes()
		for _, name := range rs.Names() {
			if bf := rs.FileStore.Lookup(name); bf != nil {
				byKind[fileKind(name)] += int64(bf.Bytes())
			}
		}
	}
	res.set("bytes_per_user_byte", float64(total)/float64(replicas*live*dim*4), live)
	for _, kind := range fileKinds {
		res.set("store.file_mb."+kind, float64(byKind[kind])/(1<<20), 1)
	}

	if p.rec != nil {
		p.layerMetrics(res, c, before, p.sys.counters())
	}

	if err := p.recover(res); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	res.set("client.error_rate", float64(res.failed+res.wrong)/float64(max(1, res.attempted)), res.attempted)
	return res, nil
}

// reopenRounds is how many times a read-only workload's image is opened
// for client.recover_s: one open takes about a millisecond, so the median of
// many is what stays steady from run to run.
const reopenRounds = 15

// recover measures how long the on-disk image takes to open again and
// checks what it answers. On ingest-mixed the image is a crash image.
func (p *pass) recover(res *passResult) error {
	if p.sp.ingest {
		return p.crashRecover(res)
	}
	if err := p.sys.close(); err != nil {
		return err
	}
	var times []float64
	defer func() { res.set("client.recover_s", percentile(times, 0.5), len(times)) }()
	for round := 0; round < reopenRounds; round++ {
		t := time.Now()
		var trees []*core.Tree
		var stos []*store.Store
		for _, rs := range p.sys.stores {
			sto, tree, err := openTree(rs.Dir(), p.sp.checksums)
			if err != nil { // the persisted index cannot be opened again
				res.attempted++
				res.failed++
				return closeAll(stos)
			}
			stos, trees = append(stos, sto), append(trees, tree)
		}
		times = append(times, time.Since(t).Seconds())
		if round == 0 && p.sp.shards == 0 {
			// The reopened tree must give the answers the oracle gives.
			for j := 0; j < 16 && j*p.sp.every < len(p.qs); j++ {
				qi := j * p.sp.every
				got, err := trees[0].KNN(stos[0].NewSession(), p.qs[qi], k)
				res.attempted++
				if err != nil {
					res.failed++
				} else if !exact(got, p.want[qi], p.qs[qi], p.pts, nil) {
					res.wrong++
				}
			}
		}
		if err := closeAll(stos); err != nil {
			return err
		}
	}
	return nil
}

// crashRecover rolls the store back to its last Sync, reopens it, and
// checks that every acknowledged write survived and nothing else did.
func (p *pass) crashRecover(res *passResult) error {
	p.sys.eng.Close()
	rs := p.sys.stores[0]
	if err := rs.crash(); err != nil {
		return err
	}
	t := time.Now()
	sto, tree, err := openTree(rs.Dir(), false)
	res.set("client.recover_s", time.Since(t).Seconds(), 1)
	res.attempted++
	if err != nil { // recovery failed: no acknowledged write can be read back
		res.failed++
		return nil
	}
	defer sto.Close()

	got, ids, err := tree.AllPoints()
	if err != nil {
		return err
	}
	seen := make([]bool, len(p.pts))
	var lost, resurrected int
	for i, id := range ids {
		if int(id) >= len(p.pts) || seen[id] || !got[i].Equal(p.pts[id]) {
			res.wrong++
			continue
		}
		seen[id] = true
		if !p.live[id] && !p.unsure[id] {
			resurrected++
		}
	}
	for id, l := range p.live {
		if l && !seen[id] && !p.unsure[id] {
			lost++
		}
	}
	res.wrong += lost + resurrected
	res.set("bench.lost_acked", float64(lost), count(p.live))
	res.set("bench.resurrected", float64(resurrected), len(p.pts)-count(p.live))
	if count(p.unsure) > 0 {
		return nil // answers are not checkable against an uncertain state
	}

	// Exact answers against base + acknowledged writes.
	n := min(200, len(p.qs))
	want := make([][]vec.Neighbor, len(p.qs))
	idx := p.order[:n]
	bruteAll(p.pts, p.live, p.qs, idx, k, want)
	for _, qi := range idx {
		nbs, err := tree.KNN(sto.NewSession(), p.qs[qi], k)
		res.attempted++
		if err != nil {
			res.failed++
		} else if !exact(nbs, want[qi], p.qs[qi], p.pts, p.live) {
			res.wrong++
		}
	}
	return nil
}

func openTree(dir string, checksums bool) (*store.Store, *core.Tree, error) {
	sto, err := store.OpenFileStore(dir, store.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	if checksums {
		if err := sto.EnableChecksums(); err != nil {
			return nil, nil, errors.Join(err, sto.Close())
		}
	}
	tree, err := core.Open(sto)
	if err != nil {
		return nil, nil, errors.Join(err, sto.Close())
	}
	return sto, tree, nil
}

func closeAll(stos []*store.Store) error {
	var errs []error
	for _, s := range stos {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// layerMetrics computes the per-layer metrics of a traced pass.
func (p *pass) layerMetrics(res *passResult, c *clientLog, before, after counters) {
	spans, self := p.rec.finish()
	res.spans = spans
	ops := c.ops
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	// Self time per span name, and the layer breakdown it comes from.
	var scatterSelf, coreSelf []float64
	var storeNs, unattributedNs, readNs int64
	var readCalls, readBlocks, syncs int
	var syncMs []float64
	var written, walBytes int64
	bs := int64(store.DefaultConfig().BlockSize)
	bySelf := map[string]float64{}
	for i, s := range spans {
		bySelf[s.Name] += float64(self[i]) / 1e6
		switch s.Name {
		case "shard.scatter":
			scatterSelf = append(scatterSelf, float64(self[i])/1e6)
		case "core.query":
			coreSelf = append(coreSelf, float64(self[i])/1e6)
		case "store":
			storeNs += s.dur()
			if s.Req == 0 {
				unattributedNs += s.dur()
			}
			switch s.Op {
			case "read":
				readCalls++
				readBlocks += int(s.Bytes / bs)
				readNs += s.dur()
			case "sync":
				syncs++
				syncMs = append(syncMs, ms(s.dur()))
			case "append", "write", "set":
				written += s.Bytes
				if s.Kind == "wal" {
					walBytes += s.Bytes
				}
			}
		}
	}
	for name, v := range bySelf {
		res.set("layer.self_ms."+name, per(v, ops), ops)
	}
	res.set("bench.span_violations", float64(spanViolations(spans)), len(spans))

	res.set("shard.self_p50_ms", percentile(scatterSelf, 0.50), len(scatterSelf))
	res.set("shard.self_p95_ms", percentile(scatterSelf, 0.95), len(scatterSelf))
	res.set("shard.fanout_per_query", per(float64(c.fanout), c.shardQueries), c.shardQueries)
	res.set("shard.useful_fanout", per(float64(c.useful), c.fanout), c.fanout)
	res.set("shard.straggler_ratio", per(c.straggler, c.shardQueries), c.shardQueries)
	res.set("shard.failovers_per_query", per(float64(c.failovers), c.shardQueries), c.shardQueries)

	res.set("engine.wait_p50_ms", percentile(c.wait, 0.50), len(c.wait))
	res.set("engine.wait_p95_ms", percentile(c.wait, 0.95), len(c.wait))
	res.set("engine.service_p50_ms", percentile(c.service, 0.50), len(c.service))
	res.set("engine.service_p95_ms", percentile(c.service, 0.95), len(c.service))
	res.set("engine.write_wait_p50_ms", percentile(c.writeWait, 0.50), len(c.writeWait))
	res.set("engine.write_service_p50_ms", percentile(c.writeService, 0.50), len(c.writeService))
	res.set("engine.write_service_p95_ms", percentile(c.writeService, 0.95), len(c.writeService))
	res.set("engine.failures_per_op", per(float64(after.failures-before.failures), ops), ops)
	res.set("engine.sheds_per_op", per(float64(after.sheds-before.sheds), ops), ops)

	a, q := c.core, c.core.queries
	res.set("core.self_ms", mean(coreSelf), len(coreSelf))
	res.set("core.pages_read", per(float64(a.pagesRead), q), q)
	res.set("core.pages_pruned_ratio", per(float64(a.pruned), a.pagesRead), a.pagesRead)
	res.set("core.candidates", per(float64(a.candidates), q), q)
	res.set("core.refinements", per(float64(a.refinements), q), q)
	res.set("core.refine_yield", per(float64(k*q), a.refined), a.refined)
	res.set("core.sim_dir_ms", per(a.simDir, q), q)
	res.set("core.sim_quant_ms", per(a.simQuant, q), q)
	res.set("core.sim_exact_ms", per(a.simExact, q), q)
	res.set("core.dist_cpu_sim_ms", per(a.distCPU, q), q)
	res.set("core.degraded_reads", per(float64(a.degraded), q), q)
	res.set("kernel.approx_cpu_sim_ms", per(a.approxCPU, q), q)
	res.set("pagesched.batches_per_query", per(float64(a.batches), q), q)
	res.set("pagesched.overread_ratio", per(float64(a.batchPages-a.batchPending), a.batchPages), a.batchPages)
	ap := c.approxCore
	res.set("core.skipped_pages", per(float64(ap.skipped), ap.queries), ap.queries)
	res.set("core.terminated_ratio", per(float64(ap.terminated), ap.queries), ap.queries)

	p0, p1 := before.pool, after.pool
	lookups := int(p1.Hits+p1.Misses) - int(p0.Hits+p0.Misses)
	res.set("store.pool_hit_rate", per(float64(p1.Hits-p0.Hits), lookups), lookups)
	res.set("store.pool_evictions_per_op", per(float64(p1.Evictions-p0.Evictions), ops), ops)
	res.set("store.read_calls_per_op", per(float64(readCalls), ops), ops)
	res.set("store.read_blocks_per_op", per(float64(readBlocks), ops), ops)
	res.set("store.read_ms_per_op", per(ms(readNs), ops), ops)
	writes := len(c.write)
	res.set("store.sync_per_write", per(float64(syncs), writes), writes)
	res.set("store.sync_p50_ms", percentile(syncMs, 0.50), len(syncMs))
	res.set("store.sync_p95_ms", percentile(syncMs, 0.95), len(syncMs))
	userBytes := 0
	for _, w := range p.writes {
		userBytes += len(w.pts) * dim * 4
	}
	res.set("store.write_amp", per(float64(written), userBytes), userBytes)
	res.set("store.wal.bytes_per_write", per(float64(walBytes), writes), writes)
	fsyncs := int(after.walFsyncs - before.walFsyncs)
	res.set("store.wal.appends_per_fsync", per(float64(after.walAppends-before.walAppends), fsyncs), fsyncs)
	res.set("store.unattributed_share", per(float64(unattributedNs), int(storeNs)), int(storeNs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// heapInuse returns the bytes in in-use heap spans after a full
// collection. Two collections also empty the sync.Pool victim caches.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}
