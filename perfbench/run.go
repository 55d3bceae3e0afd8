package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/workload"
)

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// give the reason for each. cpu_us_per_op divides by lookups on lookup and
// by updates on fanout.
var workloads = map[string]bool{"lookup": true, "fanout": true}

// run is one workload execution.
type run struct {
	name string
	p    params
	seed int64
	tr   *tracer
	out  io.Writer
	c    *cluster

	setupS  float64
	traces  [][]query.Query // per serving leaf
	perLeaf float64         // lookups/s at each serving leaf
	lookers []*looker       // per serving leaf
	sh      *shadow

	// Fixed-rate window records.
	lag           []time.Duration
	lookups       []lookupRec
	writes        []writeRec
	joins         []joinRec
	commits       []commitRec
	before, after counters

	// Tail phases.
	leftBehind    int
	sessionHeapKB float64

	joinBytes byteCounter // read by the joining leaves

	// Kept for the guards: staleness pairs no watermark covered, and the
	// timings.
	unresolved int
	timings    []string

	problems []string // correctness failures
}

// setups is how many times a run sets the cluster up.
const setups = 3

// execute runs one workload end to end and builds its result.
func execute(name string, p params, seed int64, traced bool, origin time.Time, outDir string, out io.Writer) (*result, error) {
	r := &run{name: name, p: p, seed: seed, out: out}
	if traced {
		r.tr = newTracer()
	}
	// setup_s is the median of setups set-ups, the first timed from process
	// start; the run measures the last one.
	begin := origin
	var took []float64
	defer r.tearDown()
	for i := 0; ; i++ {
		if err := r.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(origin).Seconds())
		if i == setups-1 {
			break
		}
		r.tearDown()
		runtime.GC()
		origin = time.Now()
	}
	r.setupS = quantile(took, 0.5)
	fmt.Fprintf(out, "set-ups: %.3f s\n", took)
	fmt.Fprintln(out, machine(seed, r.c.dir.Master.Shards()))
	fmt.Fprintf(out, "config: employees=%d journal=%d (master and tier) state=memory window=%s workload=%s\n",
		p.employees, p.journal, p.window, name)

	phase := func(name string) {
		fmt.Fprintf(out, "phase: %s at %.1fs (stream breaks so far: %d)\n", name, time.Since(begin).Seconds(), r.c.streamBreaks())
	}
	phase("window")
	if err := r.window(); err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	phase("joins")
	r.joinPhase()
	r.leftBehind = r.c.tier.Engine().Sessions() - r.c.tierSessions()
	phase("idle sessions")
	if err := r.idle(); err != nil {
		return nil, fmt.Errorf("idle sessions: %w", err)
	}
	phase("check")
	r.check()
	phase("report")
	return r.report(outDir)
}

// setUp builds the cluster plus the workload's standing leaves, and
// generates the lookup traces.
func (r *run) setUp() error {
	c, err := setUp(r.p, r.seed, r.tr)
	if err != nil {
		return err
	}
	r.c = c
	r.sh = newShadow(c.dir)
	tcfg := workload.DefaultTraceConfig()
	tcfg.Seed = r.seed
	gen := workload.NewGenerator(c.dir, tcfg)
	train := make([]workload.TraceQuery, r.p.trainQueries)
	for i := range train {
		train[i] = gen.Next()
	}
	trace := func(n int) []query.Query {
		qs := make([]query.Query, n)
		for i := range qs {
			qs[i] = gen.Next().Query
		}
		return qs
	}
	secs := r.p.warmup.Seconds() + r.p.window.Seconds() + 1
	var hot []query.Query
	for _, prefix := range hotBlocks(train, r.p.hotFilters) {
		hot = append(hot, specOf(prefix))
	}
	// Both workloads look up at leaves holding the hottest serial blocks:
	// two at the full lookup rate, or one at the probe rate.
	leaves, rate := 1, r.p.probeRate
	if r.name == "lookup" {
		leaves, rate = 2, r.p.lookupRate/2
	}
	r.perLeaf = rate
	var serving []*leaf
	r.traces = nil
	for i := 0; i < leaves; i++ {
		l, err := c.addStanding(fmt.Sprintf("lookup%d", i), 2, hot, true, r.seed+int64(100*i))
		if err != nil {
			return err
		}
		serving = append(serving, l)
		r.traces = append(r.traces, trace(int(rate*secs)+1))
	}
	if r.name == "fanout" {
		for i, spec := range quarterSpecs() {
			for k := 0; k < r.p.perSpec; k++ {
				if _, err := c.addStanding(fmt.Sprintf("fan%d.%d", i, k), 2, []query.Query{spec}, false, r.seed+int64(10*i+k)); err != nil {
					return err
				}
			}
		}
		// The two leaves on the master hold half the local geography each,
		// so every local update yields a hop-1 staleness sample.
		qs := quarterSpecs()
		for i := 0; i < 2; i++ {
			if _, err := c.addStanding(fmt.Sprintf("direct%d", i), 1, qs[2*i:2*i+2], false, r.seed+int64(500+i)); err != nil {
				return err
			}
		}
	} else if err := r.addProbes(); err != nil {
		return err
	}
	r.lookers = nil
	for _, l := range serving {
		lk, err := newLooker(l, c.masterAddr, r.tr)
		if err != nil {
			return err
		}
		r.lookers = append(r.lookers, lk)
	}
	return nil
}

// addProbes adds the lookup workload's standing staleness probes: one leaf
// holding the whole local geography on the master (hop 1) and one on the
// tier (hop 2).
func (r *run) addProbes() error {
	if _, err := r.c.addStanding("probe1", 1, []query.Query{localSpec}, false, r.seed+700); err != nil {
		return err
	}
	_, err := r.c.addStanding("probe2", 2, []query.Query{localSpec}, false, r.seed+701)
	return err
}

func (r *run) tearDown() {
	for _, lk := range r.lookers {
		lk.close()
	}
	r.lookers = nil
	if r.c != nil {
		r.c.tearDown()
		r.c = nil
	}
}

// ---------------------------------------------------------------------
// Fixed-rate window

// watermarkGrace is how long after the leaves' content settles their
// last watermark reports are awaited before the staleness join.
const watermarkGrace = 500 * time.Millisecond

// window runs the workload's fixed-rate load on two load goroutines
// (nproc of the 2-vCPU box it was sized on): p.warmup untimed, so the heap
// and GC pacing reach their steady state, then p.window timed.
func (r *run) window() error {
	c := r.c
	wcl, err := ldapnet.Dial(c.masterAddr)
	if err != nil {
		return err
	}
	defer wcl.Close()
	w := &writer{id: 0, cl: wcl, r: rand.New(rand.NewSource(r.seed ^ 0x77726974)), sh: r.sh, tr: r.tr}

	runtime.GC()
	warmTrace := int(r.p.warmup.Seconds() * r.perLeaf)
	r.drive(w, r.p.warmup, 0)
	r.lag, r.lookups, r.writes = nil, nil, nil
	if r.tr != nil {
		r.tr.reset() // keep only what the measured phases cause
	}
	tap := tapJournal(c.dir.Master, time.Second)
	r.before = r.snap()
	r.drive(w, r.p.window, warmTrace)
	r.after = r.snap()

	changes, err := tap.close()
	if err == nil {
		r.commits, err = joinJournal(changes, r.writes)
	}
	if err != nil {
		r.problems = append(r.problems, "CSN join: "+err.Error())
	}
	// Let the last commits reach every leaf, and their watermarks follow,
	// before the staleness join.
	if err := r.waitApplied(changes); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	time.Sleep(watermarkGrace)
	return nil
}

// drive runs the workload's open-loop schedule for T, taking lookups from
// each trace at index from on, and appends what it did to the run's
// records.
func (r *run) drive(w *writer, T time.Duration, from int) {
	type goroutine struct {
		tasks  []task
		lks    []*looker       // lookup i goes to lks[i%len(lks)]
		traces [][]query.Query // ... and takes traces[i%len][from+i/len]
	}
	// Lookups and writes run on separate goroutines, so no lookup queues
	// behind a write of the load generator's own.
	gs := []goroutine{{tasks: constantRate(r.p.writeRate, T, kindWrite, 0.5)}}
	lg := goroutine{tasks: constantRate(r.perLeaf*float64(len(r.lookers)), T, kindLookup, 0), lks: r.lookers}
	for _, tr := range r.traces {
		lg.traces = append(lg.traces, tr[from:])
	}
	gs = append(gs, lg)
	start := time.Now().Add(10 * time.Millisecond)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range gs {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lag []time.Duration
			var lookups []lookupRec
			var writes []writeRec
			runOpenLoop(start, g.tasks, &lag, func(t task, due time.Time) {
				if t.kind == kindWrite {
					writes = append(writes, w.do(due))
				} else {
					n := len(g.lks)
					lookups = append(lookups, g.lks[t.arg%n].do(g.traces[t.arg%n][t.arg/n], due))
				}
			})
			mu.Lock()
			r.lag = append(r.lag, lag...)
			r.lookups = append(r.lookups, lookups...)
			r.writes = append(r.writes, writes...)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// waitApplied polls until every standing leaf holds the after-state of
// the last change relevant to its specs. It reads content, not
// watermarks: a hop-2 watermark can lag a batch behind (see README.md),
// and the leaves must settle either way.
func (r *run) waitApplied(changes []dit.Change) error {
	pending := map[*leaf]dit.Change{}
	for _, l := range r.c.leaves {
		for i := len(changes) - 1; i >= 0; i-- {
			if l.holds(changes[i].Before) || l.holds(changes[i].After) {
				pending[l] = changes[i]
				break
			}
		}
	}
	deadline := time.Now().Add(r.p.settle)
	for len(pending) > 0 {
		for l, ch := range pending {
			if l.applied(ch) {
				delete(pending, l)
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for l, ch := range pending {
				return fmt.Errorf("leaf %s never applied CSN %d (%s %s)", l.name, ch.CSN, ch.Type, ch.DN)
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// ---------------------------------------------------------------------
// Tail phases

// joinPhase has leaves join the tier one at a time, back to back, rotating
// over the quarter specs; each waits for its initial transfer and departs.
// A join allocates tens of megabytes, so every few joins the runtime would
// start a GC cycle, and the joins alongside its mark phase took longer;
// how many did moved the join median from run to run. So a collection is
// forced between joins, untimed, once the heap has grown by half of what
// was live after the last one, before the runtime's own trigger; each
// join then measures its own work.
func (r *run) joinPhase() {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	for i := 0; i < r.p.joins; i++ {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > live+live/2 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			live = ms.HeapAlloc
		}
		r.joins = append(r.joins, r.c.joinOnce(i, r.seed, &r.joinBytes))
	}
}

// idle opens idle poll sessions over one connection to the tier and
// measures live-heap growth per session.
func (r *run) idle() error {
	cl, err := ldapnet.Dial(r.c.tierAddr)
	if err != nil {
		return err
	}
	defer cl.Close()
	base := liveHeap()
	specs := quarterSpecs()
	for i := 0; i < r.p.idleSessions; i++ {
		if _, err := cl.Sync(specs[i%len(specs)], proto.ReSyncModePoll, ""); err != nil {
			return err
		}
	}
	grown := liveHeap() - base
	r.sessionHeapKB = float64(grown) / float64(r.p.idleSessions) / 1024
	return nil
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ---------------------------------------------------------------------
// Correctness

// check runs once every writer has finished: it waits for convergence and
// compares the tier and every standing leaf, spec by spec, with the
// master's content, then re-issues sampled leaf hits at the master.
func (r *run) check() {
	c := r.c
	deadline := time.Now().Add(r.p.settle)
	type target struct {
		name string
		st   *dit.Store
		spec query.Query
	}
	targets := []target{{"tier", c.tier.Replica().Store(), localSpec}}
	for _, l := range c.leaves {
		for _, ln := range l.links {
			targets = append(targets, target{l.name, l.rep.Store(), ln.spec})
		}
	}
	for _, t := range targets {
		for {
			diff := compareContent(c.dir.Master, t.st, t.spec)
			if diff == "" {
				break
			}
			if time.Now().After(deadline) {
				r.problems = append(r.problems, fmt.Sprintf("%s diverged: %s", t.name, diff))
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	mcl, err := ldapnet.Dial(c.masterAddr)
	if err != nil {
		r.problems = append(r.problems, "dial master: "+err.Error())
		return
	}
	defer mcl.Close()
	checked := 0
	for _, lk := range r.lookers {
		for _, q := range lk.hits {
			got, err := lk.cl.Search(q)
			if err != nil {
				r.problems = append(r.problems, fmt.Sprintf("re-issued hit %s at %s: %v", q, lk.leaf.name, err))
				continue
			}
			var want []*entry.Entry
			if q.Base.IsRoot() {
				// The master refuses null-base searches (a recorded defect),
				// so compare with its content directly.
				want = c.dir.Master.MatchAll(q)
			} else {
				res, err := mcl.Search(q)
				if err != nil {
					r.problems = append(r.problems, fmt.Sprintf("re-issued hit %s at master: %v", q, err))
					continue
				}
				want = res.Entries
			}
			if d := sameEntries(got.Entries, want); d != "" {
				r.problems = append(r.problems, fmt.Sprintf("hit %s at %s differs from master: %s", q, lk.leaf.name, d))
			}
			checked++
		}
	}
	fmt.Fprintf(r.out, "check: %d replica contents compared with the master, %d sampled hits re-issued\n", len(targets), checked)
}

// ---------------------------------------------------------------------
// Counters

// counters is a point-in-time reading of every instrument the metrics
// are computed from.
type counters struct {
	at       time.Time
	cpu      time.Duration
	gcCPU    float64
	allCPU   float64
	alloc    uint64
	store    metrics.StoreSnapshot
	msync    metrics.SyncSnapshot
	tsync    metrics.SyncSnapshot
	casc     metrics.CascadeSnapshot
	queries  uint64
	hits     uint64
	checks   uint64
	hop1     int64
	hop2     int64
	applied  int64
	exchange int64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (r *run) snap() counters {
	c := r.c
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rtmetrics.Read(rtSamples)
	s := counters{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:  rtSamples[0].Value.Float64(),
		allCPU: rtSamples[1].Value.Float64(),
		alloc:  ms.TotalAlloc,
		store:  c.dir.Master.Counters().Snapshot(),
		msync:  c.masterBE.Engine.Counters().Snapshot(),
		tsync:  c.tier.SyncCounters().Snapshot(),
		casc:   c.tier.Counters().Snapshot(),
		hop1:   c.hop1.n.Load(),
		hop2:   c.hop2.n.Load(),
	}
	for _, lk := range r.lookers {
		m := lk.leaf.rep.Metrics()
		s.queries += m.Queries
		s.hits += m.Hits
		s.checks += m.ContainmentChecks
	}
	for _, ln := range c.allLinks() {
		s.applied += ln.applied.Load()
		s.exchange += ln.exchanges.Load()
	}
	return s
}

// ---------------------------------------------------------------------
// Report

func (r *run) report(outDir string) (*result, error) {
	e2e, layer, attempted, failed := r.metrics()
	fmt.Fprintln(r.out, r.guards(layer))
	for _, p := range r.problems {
		fmt.Fprintln(r.out, "FAIL:", p)
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: attempted, Failed: failed}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	last := filepath.Join(outDir, "e2e-"+r.name+".json")
	if r.tr == nil {
		printMetrics(r.out, "per-layer (counters)", layer)
		printMetrics(r.out, "end-to-end", e2e)
		res.Metrics = e2e
		if b, err := json.Marshal(e2e); err == nil {
			if err := os.WriteFile(last, b, 0o644); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	spans := r.tr.snapshot()
	spans = append(spans, r.syncSpans(spans)...)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.out, "trace: %d spans written to %s\n", len(spans), path)
	printSelfTimes(r.out, selfTimes(spans))
	for k, v := range r.spanMetrics(spans) {
		layer[k] = v
	}
	printMetrics(r.out, "end-to-end (traced)", e2e)
	printOverhead(r.out, last, e2e)
	printMetrics(r.out, "per-layer", layer)
	res.Metrics = layer
	return res, nil
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printOverhead compares the traced run's end-to-end figures with the
// last untraced run of the same workload, when there is one.
func printOverhead(w io.Writer, lastPath string, traced map[string]metric) {
	b, err := os.ReadFile(lastPath)
	if err != nil {
		fmt.Fprintf(w, "tracing overhead: no untraced result at %s to compare with\n", lastPath)
		return
	}
	var base map[string]metric
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintf(w, "tracing overhead: unreadable %s: %v\n", lastPath, err)
		return
	}
	names := make([]string, 0, len(traced))
	for k := range traced {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "tracing overhead (traced vs last untraced run):")
	for _, k := range names {
		b, ok := base[k]
		if !ok || b.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %12.4f -> %12.4f %s (%+.1f%%)\n", k, b.Value, traced[k].Value, b.Unit,
			100*(traced[k].Value-b.Value)/b.Value)
	}
}
