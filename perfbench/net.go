package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/netrt"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// netSize fixes one loopback-cluster workload's shape, apart from the seed
// and the measuring budget.
type netSize struct {
	transport string
	m, n      int
	rate      float64 // open-loop sends per second
	window    int     // closed-loop sends outstanding
	reps      int     // cluster start-ups per run, each running both phases
}

// The open-loop rate sits near half of net-udp's closed-loop capacity, so
// the workload measures steady service below saturation (the overload
// probe shows what happens above it). A TCP twin of net-udp was dropped:
// its closed-loop throughput spread past the largest allowed bound from
// run to run (see README.md).
const netRate = 3000

var netUDP = netSize{transport: netrt.TransportUDP, m: 3, n: 6, rate: netRate, window: 64, reps: 5}

// netPayload is one benchmark message. Frames carry no payload (the hub
// parks it), so the pointer never leaves the process.
type netPayload struct {
	id       int32
	from, to core.MHID
	seq      uint32 // per (from, to) pair, from 1
	closed   bool   // sent by the closed-loop phase: returns a credit
	due      int64  // recorder clock when the send was due
	execFrom int64  // Do closure start on the executor (traced)
	execTo   int64  // Do closure end
}

// netSink checks every delivery on the hub executor: exactly once, at the
// addressed host, in per-pair FIFO order. It keeps open-loop latencies.
type netSink struct {
	rec     *recorder // clock only; the sink records no spans
	credits chan struct{}

	count     []uint8
	lastSeq   []uint32 // per sender (each sender has one destination)
	latNS     []int64  // by payload id, open-loop sends only
	misrouted int64
	reordered int64
}

func (s *netSink) Name() string { return "perfbench-sink" }

func (s *netSink) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {
	s.misrouted++
}

func (s *netSink) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	now := s.rec.now()
	p, ok := msg.(*netPayload)
	if !ok || p.to != at || int(p.id) >= len(s.count) {
		s.misrouted++
		return
	}
	if s.count[p.id] < 255 {
		s.count[p.id]++
	}
	if p.seq != s.lastSeq[p.from]+1 {
		s.reordered++
	}
	s.lastSeq[p.from] = p.seq
	if p.closed {
		s.credits <- struct{}{}
	} else {
		s.latNS[p.id] = now - p.due
	}
}

// frameTap counts the frames every cluster process writes while counting
// is on, by frame type, and keeps a sample of raw frames for the codec
// timing.
type frameTap struct {
	on     atomic.Bool
	frames [16]atomic.Int64
	bytes  atomic.Int64

	mu     sync.Mutex
	sample [][]byte
}

const tapSample = 4096

func (t *frameTap) observe(raw []byte, f wire.Frame) {
	if !t.on.Load() {
		return
	}
	t.frames[int(f.Type)&15].Add(1)
	t.bytes.Add(int64(len(raw)))
	t.mu.Lock()
	if len(t.sample) < tapSample {
		t.sample = append(t.sample, append([]byte(nil), raw...))
	}
	t.mu.Unlock()
}

// hubStatus is the part of the hub's /status document the benchmark reads.
type hubStatus struct {
	DeadPeers      int   `json:"dead_peers"`
	ParkedOnDead   int64 `json:"parked_on_dead"`
	PendingRecords int64 `json:"pending_records"`
	HeartbeatRTT   struct {
		P99US int64 `json:"p99_us"`
	} `json:"heartbeat_rtt"`
	Dgram []dgramSession `json:"dgram_sessions"`
}

type dgramSession struct {
	Sent        uint64 `json:"packets_sent"`
	Received    uint64 `json:"packets_received"`
	Retransmits uint64 `json:"retransmits"`
	ReplayDrops uint64 `json:"replay_drops"`
	BadPackets  uint64 `json:"bad_packets"`
}

// getStatus serves one /status request against h in process.
func getStatus(h http.Handler, v any) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/status", nil))
	if w.Code != http.StatusOK {
		return fmt.Errorf("/status: HTTP %d", w.Code)
	}
	return json.Unmarshal(w.Body.Bytes(), v)
}

// dgramTotals sums datagram counters over the sessions /status reports:
// the listener side of every session (hub and relay nodes) plus the
// client side of each host's hub and wireless sessions. Packets are
// counted on the listener side only, where each crossing of a session
// shows once, as sent or as received.
type dgramTotals struct {
	packets, retransmits, replayDrops, badPackets uint64
}

func readDgram(lb *netrt.Loopback) (dgramTotals, error) {
	var t dgramTotals
	add := func(rows []dgramSession, listener bool) {
		for _, r := range rows {
			if listener {
				t.packets += r.Sent + r.Received
			}
			t.retransmits += r.Retransmits
			t.replayDrops += r.ReplayDrops
			t.badPackets += r.BadPackets
		}
	}
	var hub hubStatus
	if err := getStatus(lb.Sys.HealthHandler(), &hub); err != nil {
		return t, err
	}
	add(hub.Dgram, true)
	for _, n := range lb.Nodes {
		var st struct {
			Dgram []dgramSession `json:"dgram_sessions"`
		}
		if err := getStatus(n.HealthHandler(), &st); err != nil {
			return t, err
		}
		add(st.Dgram, true)
	}
	for _, c := range lb.Clients {
		var st struct {
			Dgram []dgramSession `json:"dgram_sessions"`
		}
		if err := getStatus(c.HealthHandler(), &st); err != nil {
			return t, err
		}
		add(st.Dgram, false)
	}
	return t, nil
}

// healthSampler polls PeerHealth and the hub's /status while a rep runs,
// keeping the largest outbox, pending-record and suspect-peer readings.
// Its goroutine alone writes the readings; read them after stop.
type healthSampler struct {
	done chan struct{}
	wg   sync.WaitGroup

	outboxMax, pendingMax, suspMax int64
	err                            error
}

func startHealthSampler(sys *netrt.System, every time.Duration) *healthSampler {
	h := &healthSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample(sys)
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *healthSampler) sample(sys *netrt.System) {
	var outbox, susp int64
	for _, p := range sys.PeerHealth() {
		outbox = max(outbox, int64(p.OutboxDepth))
		if p.State != netrt.PeerAlive {
			susp++
		}
	}
	var st hubStatus
	err := getStatus(sys.HealthHandler(), &st)
	h.outboxMax = max(h.outboxMax, outbox)
	h.suspMax = max(h.suspMax, susp)
	h.pendingMax = max(h.pendingMax, st.PendingRecords)
	if err != nil && h.err == nil {
		h.err = err
	}
}

func (h *healthSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// netRep is what one cluster start-up and its two phases measured.
type netRep struct {
	setup       time.Duration
	gen         time.Duration
	attempted   int64
	failed      int64
	violations  []string
	latN        int       // open-loop latency samples
	winP50      []float64 // per latency window, ms
	winP90      []float64
	winP99      []float64
	lateMaxMS   float64
	closedSends int64
	closedDur   time.Duration
	closedMsgs  int64
	winRates    []float64 // model msgs per second, per closed-loop window
	peakMB      float64
	rt          runtimeDelta

	// traced only
	spans      []span
	kinds      [3]int64 // over both phases
	phaseSends int64
	frames     [16]int64
	frameBytes int64
	sample     [][]byte
	dgram      dgramTotals
	health     *healthSampler
	status     hubStatus
	stats      core.Stats
	liveRecs   int
}

// cluster is one started loopback cluster with the benchmark's sink.
type cluster struct {
	lb   *netrt.Loopback
	ctx  core.Context
	sink *netSink
}

func startCluster(size netSize, seed uint64, rec *recorder, tap *frameTap, capacity int) (*cluster, error) {
	cfg := netrt.DefaultConfig(size.m, size.n)
	cfg.Seed = seed
	cfg.Transport = size.transport
	if tap != nil {
		cfg.FrameTap = tap.observe
	}
	lb, err := netrt.StartLoopback(cfg)
	if err != nil {
		return nil, fmt.Errorf("start loopback cluster: %w", err)
	}
	sink := &netSink{
		rec:     rec,
		credits: make(chan struct{}, size.window), // one slot per outstanding send
		count:   make([]uint8, capacity),
		lastSeq: make([]uint32, size.n),
		latNS:   make([]int64, capacity),
	}
	c := &cluster{lb: lb, sink: sink, ctx: lb.Sys.Register(sink)}
	lb.Sys.Start()
	if !lb.Sys.WaitReady(10 * time.Second) {
		lb.Stop()
		return nil, fmt.Errorf("%s cluster not ready within 10s", size.transport)
	}
	return c, nil
}

// meterKinds reads the cost meter's per-kind totals on the executor.
func (c *cluster) meterKinds() (k [3]int64, total int64) {
	c.lb.Sys.Do(func() {
		m := c.lb.Sys.Meter()
		for i, kind := range cost.Kinds() {
			k[i] = m.KindTotal(kind)
			total += k[i]
		}
	})
	return k, total
}

// loadgen is the single generator goroutine's state: it numbers sends,
// picks senders from the seeded stream and keeps per-sender sequence
// numbers.
type loadgen struct {
	c      *cluster
	rec    *recorder
	traced bool
	rng    *sim.RNG
	n      int
	next   int32
	seq    []uint32
	start  int64  // recorder clock when the open loop began
	doSpan []span // spanDo/spanExec pairs, open phase only
	errs   int64
}

// send issues one send through Sys.Do and reports whether it was accepted.
func (g *loadgen) send(due int64, closed bool) bool {
	if int(g.next) >= len(g.c.sink.count) {
		return false
	}
	from := core.MHID(g.rng.Intn(g.n))
	to := core.MHID((int(from) + 1) % g.n)
	g.seq[from]++
	p := &netPayload{id: g.next, from: from, to: to, seq: g.seq[from], closed: closed, due: due}
	g.next++
	ctx, traced, rec := g.c.ctx, g.traced, g.rec
	call := rec.now()
	g.c.lb.Sys.Do(func() {
		if traced {
			p.execFrom = rec.now()
		}
		if err := ctx.SendMHToMH(from, to, p, cost.CatAlgorithm); err != nil {
			g.errs++
		}
		if traced {
			p.execTo = rec.now()
		}
	})
	if traced && !closed {
		ret := rec.now()
		g.doSpan = append(g.doSpan,
			span{Kind: spanDo, Parent: -1, Start: call, End: ret},
			span{Kind: spanExec, Parent: int32(len(g.doSpan)), Start: p.execFrom, End: p.execTo})
	}
	return true
}

// dueAt is when open-loop send i was due on the recorder clock.
func (g *loadgen) dueAt(i int, rate float64) int64 {
	return g.start + int64(i)*int64(time.Duration(float64(time.Second)/rate))
}

// openLoop sends count messages at a fixed rate, each timed from when it
// was due, and reports how late the generator ran at worst.
func (g *loadgen) openLoop(count int, rate float64) (lateMax time.Duration) {
	g.start = g.rec.now()
	for i := 0; i < count; i++ {
		due := g.dueAt(i, rate)
		if d := time.Duration(due - g.rec.now()); d > 0 {
			time.Sleep(d)
		}
		lateMax = max(lateMax, time.Duration(g.rec.now()-due))
		if !g.send(due, false) {
			break
		}
	}
	return lateMax
}

// closedLoop keeps window sends outstanding for dur. It returns how many
// it issued and the cost meter's rate over each stretch of every.
func (g *loadgen) closedLoop(window int, dur, every time.Duration) (sent int64, rates []float64) {
	credits := g.c.sink.credits
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	_, lastMsgs := g.c.meterKinds()
	lastAt := g.rec.now()
	deadline := lastAt + int64(dur)
	for now := lastAt; now < deadline; now = g.rec.now() {
		if now-lastAt >= int64(every) {
			_, msgs := g.c.meterKinds()
			rates = append(rates, float64(msgs-lastMsgs)/time.Duration(now-lastAt).Seconds())
			lastMsgs, lastAt = msgs, now
		}
		<-credits
		if !g.send(now, true) {
			break
		}
		sent++
	}
	return sent, rates
}

// Latency percentiles are taken per window of the open loop and the
// median over windows is reported, so one scheduler stall moves the
// figure of one window, not the whole run's tail. A window holds
// windowSends sends, so its p99 has 15 samples beyond it (500ms at the
// workloads' rate). Closed-loop throughput is likewise a median over
// windows of rateWindow.
const (
	windowSends = 1500
	rateWindow  = 250 * time.Millisecond
)

func latWindow(rate float64) time.Duration {
	return time.Duration(windowSends / rate * float64(time.Second))
}

// windowPercentiles groups latencies (ms) by the window of their due time
// and returns each full window's p50, p90 and p99. A window needs ten
// samples beyond its p99 to count.
func windowPercentiles(due []int64, latMS []float64, start int64, window time.Duration) (p50, p90, p99 []float64) {
	groups := map[int64][]float64{}
	for i, d := range due {
		w := (d - start) / int64(window)
		groups[w] = append(groups[w], latMS[i])
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		xs := groups[k]
		if len(xs) < 1000 {
			continue
		}
		sort.Float64s(xs)
		p50 = append(p50, sortedPercentile(xs, 0.50))
		p90 = append(p90, sortedPercentile(xs, 0.90))
		p99 = append(p99, sortedPercentile(xs, 0.99))
	}
	return p50, p90, p99
}

// drainTimeout bounds how long a phase may take to deliver its tail.
const drainTimeout = 10 * time.Second

// runNetRep starts a cluster, runs the open-loop then the closed-loop
// phase on it, checks delivery, and stops it.
func runNetRep(size netSize, seed uint64, phase time.Duration, traced bool) (*netRep, error) {
	rep := &netRep{}
	rec := newRecorder(time.Now(), 0)
	openCount := int(size.rate * phase.Seconds())
	capacity := openCount + int(phase.Seconds()*100_000) + size.window

	var tap *frameTap
	if traced {
		tap = &frameTap{}
	}
	t0 := time.Now()
	rng := sim.NewRNG(seed)
	rep.gen = time.Since(t0)
	c, err := startCluster(size, seed, rec, tap, capacity)
	if err != nil {
		return nil, err
	}
	defer c.lb.Stop()
	rep.setup = time.Since(t0)
	g := &loadgen{c: c, rec: rec, traced: traced, rng: rng, n: size.n, seq: make([]uint32, size.n)}

	runtime.GC()
	heap := startHeapSampler(10 * time.Millisecond)
	var health *healthSampler
	var dg0 dgramTotals
	var k0 [3]int64
	if traced {
		if dg0, err = readDgram(c.lb); err != nil {
			return nil, err
		}
		k0, _ = c.meterKinds()
		health = startHealthSampler(c.lb.Sys, 5*time.Millisecond)
		tap.on.Store(true)
	}

	lateMax := g.openLoop(openCount, size.rate)
	if !c.lb.Sys.WaitIdle(drainTimeout) {
		rep.violation("open-loop phase did not drain within %v", drainTimeout)
	}
	openSent := int64(g.next)

	before := readRuntime()
	_, m0 := c.meterKinds()
	t1 := time.Now()
	rep.closedSends, rep.winRates = g.closedLoop(size.window, phase, rateWindow)
	rep.closedDur = time.Since(t1)
	_, m1 := c.meterKinds()
	rep.rt = readRuntime().since(before)
	rep.closedMsgs = m1 - m0
	if !c.lb.Sys.WaitIdle(drainTimeout) {
		rep.violation("closed-loop phase did not drain within %v", drainTimeout)
	}
	rep.peakMB = heap.stop()
	rep.lateMaxMS = float64(lateMax) / 1e6

	if traced {
		tap.on.Store(false)
		health.stop()
		rep.health = health
		if health.err != nil {
			return nil, health.err
		}
		k1, _ := c.meterKinds()
		for i := range k1 {
			rep.kinds[i] = k1[i] - k0[i]
		}
		dg1, err := readDgram(c.lb)
		if err != nil {
			return nil, err
		}
		rep.dgram = dgramTotals{
			packets:     dg1.packets - dg0.packets,
			retransmits: dg1.retransmits - dg0.retransmits,
			replayDrops: dg1.replayDrops - dg0.replayDrops,
			badPackets:  dg1.badPackets - dg0.badPackets,
		}
		for i := range tap.frames {
			rep.frames[i] = tap.frames[i].Load()
		}
		rep.frameBytes = tap.bytes.Load()
		tap.mu.Lock()
		rep.sample = tap.sample
		tap.mu.Unlock()
		if err := getStatus(c.lb.Sys.HealthHandler(), &rep.status); err != nil {
			return nil, err
		}
		rep.spans = g.doSpan
		rep.phaseSends = int64(g.next)
	}
	rep.stats = c.lb.Sys.Stats()
	c.lb.Sys.Do(func() { rep.liveRecs = c.lb.Sys.Engine().LiveRecs() })

	// Exactly once, at the addressed host, in per-pair FIFO order.
	s := c.sink
	rep.attempted = int64(g.next)
	var due []int64
	var lat []float64
	for id := int32(0); id < g.next; id++ {
		if s.count[id] != 1 {
			rep.failed++
			continue
		}
		if int64(id) < openSent {
			due = append(due, g.dueAt(int(id), size.rate))
			lat = append(lat, float64(s.latNS[id])/1e6)
		}
	}
	rep.latN = len(lat)
	rep.winP50, rep.winP90, rep.winP99 = windowPercentiles(due, lat, g.start, latWindow(size.rate))
	if rep.failed > 0 {
		rep.violation("%d of %d sends not delivered exactly once", rep.failed, rep.attempted)
	}
	if s.misrouted+s.reordered+g.errs > 0 {
		rep.violation("%d misrouted, %d out of per-pair order, %d refused sends", s.misrouted, s.reordered, g.errs)
		rep.failed += s.misrouted + s.reordered + g.errs
	}
	if rep.liveRecs != 0 {
		rep.violation("%d delivery records live after drain", rep.liveRecs)
	}
	return rep, nil
}

func (r *netRep) violation(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// extraSetups is how many clusters each run starts only to time set-up,
// on top of one per repetition, so setup_s is a median of many start-ups.
const extraSetups = 7

// setupOnly starts and readies n clusters, one after another, timing each.
// Each is stopped in the background as soon as it was timed (a UDP
// cluster can take over a second to stop), and all have stopped when
// setupOnly returns.
func setupOnly(size netSize, seed uint64, n int) ([]float64, error) {
	var wg sync.WaitGroup
	defer wg.Wait()
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := startCluster(size, seed, newRecorder(t0, 0), nil, 1)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.lb.Stop()
		}()
	}
	return times, nil
}

// runNet times extraSetups cluster start-ups, then runs repetitions that
// each start a cluster and split their share of the measuring budget
// evenly between the open loop and the closed loop. A traced run
// alternates untraced and traced repetitions.
func runNet(size netSize, cfg runConfig, res *result) error {
	reps := max(size.reps, cfg.minReps)
	if cfg.trace && reps%2 == 1 {
		reps++
	}
	setup, err := setupOnly(size, cfg.seed, extraSetups)
	if err != nil {
		return err
	}
	phase := cfg.seconds / time.Duration(2*reps)
	var all []*netRep
	for i := 0; i < reps; i++ {
		traced := cfg.trace && i%2 == 1
		rep, err := runNetRep(size, cfg.seed, phase, traced)
		if err != nil {
			return err
		}
		all = append(all, rep)
	}

	var gen, rate, peak, p50, p90, p99 []float64
	var late float64
	var latN int
	for _, r := range all {
		res.attempted += r.attempted
		res.failed += r.failed
		for _, v := range r.violations {
			res.violation("%s", v)
		}
		setup = append(setup, r.setup.Seconds())
		gen = append(gen, r.gen.Seconds())
		rate = append(rate, r.winRates...)
		peak = append(peak, r.peakMB)
		p50 = append(p50, r.winP50...)
		p90 = append(p90, r.winP90...)
		p99 = append(p99, r.winP99...)
		latN += r.latN
		late = max(late, r.lateMaxMS)
	}
	var sendsPerS []float64
	for _, r := range all {
		sendsPerS = append(sendsPerS, float64(r.closedSends)/r.closedDur.Seconds())
	}
	res.note("transport %s, M=%d N=%d, reps %d, open loop %.0f sends/s for %v, closed loop %d outstanding for %v",
		size.transport, size.m, size.n, len(all), size.rate, phase, size.window, phase)
	res.note("latency samples %d (open loop, timed from each send's due time) in %d windows of %v; window p90s %s ms; window p99s %s ms",
		latN, len(p99), latWindow(size.rate), fmtList(p90, "%.2f"), fmtList(p99, "%.2f"))
	res.note("closed-loop windows of %v: %d, quartile spread %.3f; model msgs/s %s", rateWindow, len(rate), spread(rate), fmtList(rate, "%.0f"))
	res.note("closed-loop sends/s per rep: median %.0f; generator late by at most %.2f ms", median(sendsPerS), late)

	if !cfg.trace {
		res.e2e["setup_s"] = median(setup)
		res.e2e["msgs_per_s"] = median(rate)
		res.e2e["latency_p50_ms"] = median(p50)
		res.e2e["peak_heap_mb"] = median(peak)
		return nil
	}

	var waitUS, doUS, execNS, overhead, plainP90, plainP99 []float64
	var frames [16]int64
	var plain, last *netRep
	var kinds [3]int64
	var sends, bytes, outboxMax, pendingMax, suspMax int64
	var dg dgramTotals
	var sample [][]byte
	var rtt, parked float64
	for i, r := range all {
		if i%2 == 0 {
			plain = r
			plainP90 = append(plainP90, r.winP90...)
			plainP99 = append(plainP99, r.winP99...)
			continue
		}
		last = r
		for j := 0; j+1 < len(r.spans); j += 2 {
			do, ex := r.spans[j], r.spans[j+1]
			waitUS = append(waitUS, float64(ex.Start-do.Start)/1e3)
			doUS = append(doUS, float64(do.End-do.Start)/1e3)
			execNS = append(execNS, float64(ex.End-ex.Start))
		}
		overhead = append(overhead, (float64(plain.closedSends)/plain.closedDur.Seconds())/(float64(r.closedSends)/r.closedDur.Seconds())-1)
		for k := range kinds {
			kinds[k] += r.kinds[k]
		}
		sends += r.phaseSends
		for k := range frames {
			frames[k] += r.frames[k]
		}
		bytes += r.frameBytes
		dg.packets += r.dgram.packets
		dg.retransmits += r.dgram.retransmits
		dg.replayDrops += r.dgram.replayDrops
		dg.badPackets += r.dgram.badPackets
		outboxMax = max(outboxMax, r.health.outboxMax)
		pendingMax = max(pendingMax, r.health.pendingMax)
		suspMax = max(suspMax, r.health.suspMax)
		rtt = max(rtt, float64(r.status.HeartbeatRTT.P99US))
		parked += float64(r.status.ParkedOnDead)
		sample = append(sample, r.sample...)
	}
	var totalFrames int64
	for _, f := range frames {
		totalFrames += f
	}
	fs := float64(sends)
	encNS, decNS, err := codecTiming(sample)
	if err != nil {
		res.violation("captured frame does not round-trip: %v", err)
	}
	l := res.layer
	l["workload.gen_s"] = median(gen)
	l["engine.send_ns"] = mean(execNS)
	l["engine.stale_reroutes"] = float64(last.stats.StaleReroutes)
	l["engine.searches_per_send"] = float64(last.stats.Searches) / float64(last.attempted)
	l["engine.failed_deliveries"] = float64(last.stats.FailedDeliveries)
	l["engine.waiter_drops"] = float64(last.stats.WaiterDrops)
	l["engine.live_recs_end"] = float64(last.liveRecs)
	l["runtime.allocs_per_msg"] = plain.rt.mallocs / float64(plain.closedMsgs)
	l["runtime.alloc_bytes_per_msg"] = plain.rt.bytes / float64(plain.closedMsgs)
	l["runtime.gc_cycles"] = plain.rt.gcCycles
	l["runtime.gc_cpu_frac"] = plain.rt.gcCPUFrac
	l["execq.wait_us_p50"] = percentile(waitUS, 0.50)
	l["execq.wait_us_p99"] = percentile(waitUS, 0.99)
	l["netrt.do_us_p50"] = percentile(doUS, 0.50)
	l["netrt.outbox_max"] = float64(outboxMax)
	l["netrt.pending_max"] = float64(pendingMax)
	l["netrt.heartbeat_rtt_p99_us"] = rtt
	l["netrt.suspect_peers_max"] = float64(suspMax)
	l["netrt.parked_on_dead"] = parked
	l["wire.frames_per_send"] = float64(totalFrames) / fs
	l["wire.bytes_per_send"] = float64(bytes) / fs
	l["wire.encode_ns"] = encNS
	l["wire.decode_ns"] = decNS
	l["dgram.packets_per_send"] = float64(dg.packets) / fs
	if dg.packets > 0 {
		l["dgram.retransmit_frac"] = float64(dg.retransmits) / float64(dg.packets)
	}
	l["dgram.replay_drops"] = float64(dg.replayDrops)
	l["dgram.bad_packets"] = float64(dg.badPackets)
	l["cost.fixed_per_send"] = float64(kinds[0]) / fs
	l["cost.wireless_per_send"] = float64(kinds[1]) / fs
	l["cost.search_per_send"] = float64(kinds[2]) / fs
	l["loadgen.late_max_ms"] = late
	l["loadgen.latency_p90_ms"] = median(plainP90)
	l["loadgen.latency_p99_ms"] = median(plainP99)
	l["trace.overhead_frac"] = median(overhead)

	var mix []string
	for t, f := range frames {
		if f > 0 {
			mix = append(mix, fmt.Sprintf("%s %.2f", wire.Type(t), float64(f)/fs))
		}
	}
	sort.Strings(mix)
	res.note("frames per send by type: %s", strings.Join(mix, ", "))
	// The paper tie-back: measured wall cost of one send beside the
	// model's message counts for it and the frames that carry it.
	res.note("paper tie-back: %.1f wall us per send (closed loop, untraced) for %.2f Cfixed + %.2f Cwireless + %.2f Csearch model msgs and %.2f frames",
		1e6/(float64(plain.closedSends)/plain.closedDur.Seconds()), l["cost.fixed_per_send"], l["cost.wireless_per_send"], l["cost.search_per_send"], l["wire.frames_per_send"])
	return nil
}

// codecTiming times wire.AppendFrame and wire.DecodeFrame over the
// captured frame mix, and checks each frame re-encodes to its bytes.
func codecTiming(sample [][]byte) (encNS, decNS float64, err error) {
	if len(sample) == 0 {
		return 0, 0, nil
	}
	frames := make([]wire.Frame, len(sample))
	var buf []byte
	for i, raw := range sample {
		f, _, err := wire.DecodeFrame(raw)
		if err != nil {
			return 0, 0, err
		}
		frames[i] = f
		buf, err = wire.AppendFrame(buf[:0], f)
		if err != nil {
			return 0, 0, err
		}
		if string(buf) != string(raw) {
			return 0, 0, fmt.Errorf("%s frame re-encodes to different bytes", f.Type)
		}
	}
	const rounds = 64
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			buf, _ = wire.AppendFrame(buf[:0], f)
		}
	}
	encNS = float64(time.Since(t)) / float64(rounds*len(frames))
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, raw := range sample {
			_, _, _ = wire.DecodeFrame(raw)
		}
	}
	decNS = float64(time.Since(t)) / float64(rounds*len(sample))
	return encNS, decNS, nil
}
