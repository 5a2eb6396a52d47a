package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// simSize fixes one simulated workload's inputs, apart from the seed.
type simSize struct {
	kind   workload.ScaleKind
	n, m   int
	ops    int
	chains int // concurrent injection chains (0: the generator's default)
	shards int // kernel shards (0: single heap)
}

// simSizes are the full-size simulated workloads. sim-route keeps every
// send independently in flight (chains == ops) on the sharded kernel, the
// million-host regime; sim-chase races a move against a send at the same
// host on the single-heap kernel, so the sharded queue is bypassed.
var simSizes = map[string]simSize{
	"sim-route": {kind: workload.ScaleRoute, n: 1_000_000, m: 10_000, ops: 500_000, chains: 500_000, shards: 512},
	"sim-chase": {kind: workload.ScaleSearchChase, n: 100_000, m: 1_000, ops: 500_000},
}

// simPayload is one benchmark message. Payloads are preallocated and sent
// by pointer, so boxing them into core.Message allocates nothing.
type simPayload struct {
	id   int32
	to   core.MHID
	sent int64 // recorder clock at the SendToMH call
}

// simSink is the algorithm the benchmark registers: it checks and times
// every delivery and otherwise does nothing, so the measured cost is the
// engine's, not a protocol's.
type simSink struct {
	rec     *recorder
	traced  bool
	runSpan int32
	kernel  *sim.Kernel

	count      []uint8 // deliveries per payload id
	latNS      []int64 // send→deliver wall latency per payload id
	misrouted  int64   // deliveries at the wrong host or of a foreign value
	pendingMax int
}

func (s *simSink) Name() string { return "perfbench-sink" }

func (s *simSink) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {
	s.misrouted++ // the workloads send only to hosts
}

func (s *simSink) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	start := s.rec.now()
	p, ok := msg.(*simPayload)
	if !ok || p.to != at {
		s.misrouted++
		return
	}
	if s.count[p.id] < 255 {
		s.count[p.id]++
	}
	s.latNS[p.id] = start - p.sent
	if s.traced {
		s.pendingMax = max(s.pendingMax, s.kernel.Pending())
		s.rec.add(spanHandler, s.runSpan, start, s.rec.now())
	}
}

// simBuffers are the benchmark's own per-payload arrays, allocated once
// per run and reused by every repetition, so they stay out of the
// program's set-up time and allocation counts.
type simBuffers struct {
	payloads []simPayload
	count    []uint8
	latNS    []int64
}

// simRep is what one repetition (generate, build, run, check) measured.
type simRep struct {
	setup, gen, run time.Duration
	sends           int
	msgs            int64
	kinds           [3]int64 // fixed, wireless, search
	stats           core.Stats
	steps           uint64
	liveRecs        int
	peakMB          float64
	rt              runtimeDelta
	latP50, latP90  float64 // ms
	latP99          float64
	failed          int64
	moveSkips       int64
	runSpan         int32
	runSelf         float64 // s, traced: Run minus injection and handler spans
	sendNS, moveNS  float64 // mean span, traced
	pendingMax      int
}

// plan groups op indices by the tick they are due, following the
// generator's chain rule (op i fires Wait ticks after op i-chains), so the
// benchmark schedules one closure per tick instead of one per op.
func plan(sc *workload.ScaleScenario, chains int) (ticks []sim.Time, batches [][]int32) {
	if chains <= 0 || chains > len(sc.Ops) {
		chains = min(sc.Cfg.N, len(sc.Ops))
	}
	due := make([]sim.Time, len(sc.Ops))
	var last sim.Time
	for i, op := range sc.Ops {
		due[i] = op.Wait
		if i >= chains {
			due[i] += due[i-chains]
		}
		last = max(last, due[i])
	}
	byTick := make([][]int32, last+1)
	for i, d := range due {
		byTick[d] = append(byTick[d], int32(i))
	}
	for t, b := range byTick {
		if len(b) > 0 {
			ticks = append(ticks, sim.Time(t))
			batches = append(batches, b)
		}
	}
	return ticks, batches
}

// runSimRep generates the scenario, builds the system, runs it to
// quiescence and checks every delivery. Tracing records spans around each
// injection batch, send, move and delivery.
func runSimRep(size simSize, seed uint64, traced bool, buf *simBuffers) (*simRep, error) {
	rep := &simRep{sends: size.ops}
	epoch := time.Now()
	rec := newRecorder(epoch, 0)
	if traced {
		rec = newRecorder(epoch, 3*size.ops+1024)
	}

	t0 := time.Now()
	sc, err := workload.GenScale(workload.ScaleConfig{
		N: size.n, M: size.m, Seed: seed, Kind: size.kind, Ops: size.ops, Chains: size.chains,
	})
	if err != nil {
		return nil, err
	}
	rep.gen = time.Since(t0)
	sys, err := workload.NewScaleSystem(sc, size.shards)
	if err != nil {
		return nil, err
	}
	sink := &simSink{rec: rec, traced: traced, kernel: sys.Kernel(), count: buf.count, latNS: buf.latNS}
	clear(sink.count)
	d := &simInjector{rep: rep, sys: sys, ctx: sys.Register(sink), sc: sc, payloads: buf.payloads, sink: sink}
	ticks, batches := plan(sc, size.chains)
	for i := range ticks {
		batch := batches[i]
		sys.Schedule(ticks[i], func() { d.inject(batch) })
	}
	rep.setup = time.Since(t0)

	runtime.GC()
	before := readRuntime()
	heap := startHeapSampler(10 * time.Millisecond)
	if traced {
		rep.runSpan = rec.begin(spanRun, -1)
		sink.runSpan = rep.runSpan
	}
	t1 := time.Now()
	err = sys.Run()
	rep.run = time.Since(t1)
	if traced {
		rec.end(rep.runSpan)
	}
	rep.peakMB = heap.stop()
	rep.rt = readRuntime().since(before)
	if err != nil {
		return nil, fmt.Errorf("sim run: %w", err)
	}

	m := sys.Meter()
	for i, k := range cost.Kinds() {
		rep.kinds[i] = m.KindTotal(k)
		rep.msgs += m.KindTotal(k)
	}
	rep.stats = sys.Stats()
	rep.steps = sys.Kernel().Steps()
	rep.liveRecs = sys.Engine().LiveRecs()
	if traced {
		// Reduce the spans now, so repetitions do not hold them.
		rep.runSelf = float64(selfTime(rec.spans, rep.runSpan)) / 1e9
		if s, n := total(rec.spans, spanSend); n > 0 {
			rep.sendNS = float64(s) / float64(n)
		}
		if s, n := total(rec.spans, spanMove); n > 0 {
			rep.moveNS = float64(s) / float64(n)
		}
	}
	rep.pendingMax = sink.pendingMax

	// Exactly once per payload id, nothing misrouted, no record left.
	lat := make([]float64, 0, size.ops)
	for id := 0; id < size.ops; id++ {
		if sink.count[id] != 1 {
			rep.failed++
			continue
		}
		lat = append(lat, float64(sink.latNS[id])/1e6)
	}
	sort.Float64s(lat)
	rep.latP50 = sortedPercentile(lat, 0.50)
	rep.latP90 = sortedPercentile(lat, 0.90)
	rep.latP99 = sortedPercentile(lat, 0.99)
	rep.failed += sink.misrouted
	if rep.liveRecs != 0 {
		rep.failed++
	}
	return rep, nil
}

// simInjector injects one repetition's scenario into its system.
type simInjector struct {
	rep      *simRep
	sys      *core.System
	ctx      core.Context
	sc       *workload.ScaleScenario
	payloads []simPayload
	sink     *simSink
}

// inject fires one tick's batch of scenario ops.
func (d *simInjector) inject(batch []int32) {
	rep, sys, sc, sink := d.rep, d.sys, d.sc, d.sink
	rec, traced := sink.rec, sink.traced
	var bs int32 = -1
	if traced {
		sink.pendingMax = max(sink.pendingMax, sys.Kernel().Pending())
		bs = rec.begin(spanInject, rep.runSpan)
	}
	m := sc.Cfg.M
	for _, idx := range batch {
		op := sc.Ops[idx]
		from := op.MSS
		if sc.Cfg.Kind == workload.ScaleSearchChase {
			// A host already between cells cannot start another move;
			// the send still races its current trip.
			if _, st := sys.Where(op.MH); st == core.StatusConnected {
				var ms int32
				if traced {
					ms = rec.begin(spanMove, bs)
				}
				if err := sys.Move(op.MH, op.MSS); err != nil {
					rep.failed++
				}
				if traced {
					rec.end(ms)
				}
			} else {
				rep.moveSkips++
			}
			from = core.MSSID((int(op.MSS) + 1) % m)
		}
		p := &d.payloads[idx]
		*p = simPayload{id: idx, to: op.MH}
		var ss int32
		if traced {
			ss = rec.begin(spanSend, bs)
			p.sent = rec.spans[ss].Start
		} else {
			p.sent = rec.now()
		}
		d.ctx.SendToMH(from, op.MH, p, cost.CatAlgorithm)
		if traced {
			rec.end(ss)
		}
	}
	if traced {
		rec.end(bs)
		sink.pendingMax = max(sink.pendingMax, sys.Kernel().Pending())
	}
}

// runSim repeats the workload until the measuring budget is spent. The
// first repetition warms the process up and is checked but not measured:
// it alone runs on memory fresh from the OS, so it alone pays page faults
// inside Run instead of page zeroing inside set-up. Untraced runs report
// end-to-end metrics as medians over the measured repetitions. Traced runs
// alternate untraced and traced repetitions of the same seed: the
// untraced ones give the runtime counters and the overhead baseline, the
// traced ones the spans, and all must agree on the cost meter.
func runSim(size simSize, cfg runConfig, res *result) error {
	buf := &simBuffers{
		payloads: make([]simPayload, size.ops),
		count:    make([]uint8, size.ops),
		latNS:    make([]int64, size.ops),
	}
	warm, err := runSimRep(size, cfg.seed, false, buf)
	if err != nil {
		return err
	}
	var reps []*simRep
	var measured time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		traced := cfg.trace && i%2 == 1
		rep, err := runSimRep(size, cfg.seed, traced, buf)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		measured += rep.run
		enough := measured >= cfg.seconds && len(reps) >= cfg.minReps
		if cfg.trace {
			enough = enough && len(reps)%2 == 0
		}
		if enough {
			break
		}
	}

	var setup, gen, rate, peak, p50, p90, p99 []float64
	for _, r := range append([]*simRep{warm}, reps...) {
		res.attempted += int64(r.sends)
		res.failed += r.failed
		if r.kinds != warm.kinds {
			res.violation("cost meter differs between repetitions of seed %d: %v vs %v", cfg.seed, r.kinds, warm.kinds)
		}
		if r.failed > 0 {
			res.violation("%d payloads not delivered exactly once or misrouted, %d records live at quiescence", r.failed, r.liveRecs)
		}
	}
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		gen = append(gen, r.gen.Seconds())
		rate = append(rate, float64(r.msgs)/r.run.Seconds())
		peak = append(peak, r.peakMB)
		p50 = append(p50, r.latP50)
		p90 = append(p90, r.latP90)
		p99 = append(p99, r.latP99)
	}
	first := reps[0]
	res.note("%s N=%d M=%d shards=%d: reps %d after one warm-up, sends/rep %d, model msgs/rep %d, move skips/rep %d",
		size.kind, size.n, size.m, size.shards, len(reps), first.sends, first.msgs, first.moveSkips)
	res.note("per rep: msgs_per_s %s (quartile spread %.3f); setup_s %s; peak_heap_mb %s",
		fmtList(rate, "%.0f"), spread(rate), fmtList(setup, "%.3f"), fmtList(peak, "%.0f"))
	res.note("latency: wall time from SendToMH to the sink's HandleMH, %d samples per rep, median of per-rep percentiles", first.sends)

	if !cfg.trace {
		res.e2e["setup_s"] = median(setup)
		res.e2e["msgs_per_s"] = median(rate)
		res.e2e["latency_p50_ms"] = median(p50)
		res.e2e["peak_heap_mb"] = median(peak)
		return nil
	}

	var runSelf, sendNS, moveNS, overhead, plainP90, plainP99 []float64
	var plain, tr *simRep
	for i, r := range reps {
		if i%2 == 0 {
			plain = r
			plainP90 = append(plainP90, r.latP90)
			plainP99 = append(plainP99, r.latP99)
			continue
		}
		tr = r
		runSelf = append(runSelf, r.runSelf)
		sendNS = append(sendNS, r.sendNS)
		moveNS = append(moveNS, r.moveNS)
		overhead = append(overhead, r.run.Seconds()/plain.run.Seconds()-1)
	}
	sends := float64(first.sends)
	l := res.layer
	l["workload.gen_s"] = median(gen)
	l["sim.events"] = float64(tr.steps)
	l["sim.events_per_msg"] = float64(tr.steps) / float64(tr.msgs)
	l["sim.pending_max"] = float64(tr.pendingMax)
	l["sim.run_self_s"] = median(runSelf)
	l["engine.send_ns"] = median(sendNS)
	l["engine.move_ns"] = median(moveNS)
	l["engine.stale_reroutes"] = float64(tr.stats.StaleReroutes)
	l["engine.searches_per_send"] = float64(tr.stats.Searches) / sends
	l["engine.failed_deliveries"] = float64(tr.stats.FailedDeliveries)
	l["engine.waiter_drops"] = float64(tr.stats.WaiterDrops)
	l["engine.live_recs_end"] = float64(tr.liveRecs)
	l["runtime.allocs_per_msg"] = plain.rt.mallocs / float64(plain.msgs)
	l["runtime.alloc_bytes_per_msg"] = plain.rt.bytes / float64(plain.msgs)
	l["runtime.gc_cycles"] = plain.rt.gcCycles
	l["runtime.gc_cpu_frac"] = plain.rt.gcCPUFrac
	l["cost.fixed_per_send"] = float64(tr.kinds[0]) / sends
	l["cost.wireless_per_send"] = float64(tr.kinds[1]) / sends
	l["cost.search_per_send"] = float64(tr.kinds[2]) / sends
	l["loadgen.latency_p90_ms"] = median(plainP90)
	l["loadgen.latency_p99_ms"] = median(plainP99)
	l["trace.overhead_frac"] = median(overhead)
	return nil
}
