package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Their order is the print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by every traced run.
// A layer a workload does not exercise reads 0 there (see README.md for
// which end-to-end metric and workload each one should move).
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_msg", "ratio"},
	{"sim.pending_max", "count"},
	{"sim.run_self_s", "s"},
	{"engine.send_ns", "ns"},
	{"engine.move_ns", "ns"},
	{"engine.stale_reroutes", "count"},
	{"engine.searches_per_send", "ratio"},
	{"engine.failed_deliveries", "count"},
	{"engine.waiter_drops", "count"},
	{"engine.live_recs_end", "count"},
	{"runtime.allocs_per_msg", "count"},
	{"runtime.alloc_bytes_per_msg", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"execq.wait_us_p50", "us"},
	{"execq.wait_us_p99", "us"},
	{"netrt.do_us_p50", "us"},
	{"netrt.outbox_max", "count"},
	{"netrt.pending_max", "count"},
	{"netrt.heartbeat_rtt_p99_us", "us"},
	{"netrt.suspect_peers_max", "count"},
	{"netrt.parked_on_dead", "count"},
	{"wire.frames_per_send", "ratio"},
	{"wire.bytes_per_send", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"dgram.packets_per_send", "ratio"},
	{"dgram.retransmit_frac", "ratio"},
	{"dgram.replay_drops", "count"},
	{"dgram.bad_packets", "count"},
	{"cost.fixed_per_send", "ratio"},
	{"cost.wireless_per_send", "ratio"},
	{"cost.search_per_send", "ratio"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"check.failed_frac", "ratio"},
}

// runtimeCounters is a snapshot of the Go runtime's allocation and GC
// counters, diffed around a measured interval.
type runtimeCounters struct {
	mallocs, bytes uint64
	numGC          uint32
	gcCPU, allCPU  float64 // cumulative CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	c := runtimeCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		c.allCPU = cpuSamples[1].Value.Float64()
	}
	return c
}

// runtimeDelta is the program's runtime cost over one interval.
type runtimeDelta struct {
	mallocs, bytes, gcCycles float64
	gcCPUFrac                float64
}

func (c runtimeCounters) since(old runtimeCounters) runtimeDelta {
	d := runtimeDelta{
		mallocs:  float64(c.mallocs - old.mallocs),
		bytes:    float64(c.bytes - old.bytes),
		gcCycles: float64(c.numGC - old.numGC),
	}
	if all := c.allCPU - old.allCPU; all > 0 {
		d.gcCPUFrac = (c.gcCPU - old.gcCPU) / all
	}
	return d
}

// heapSampler tracks the peak in-use heap while it runs, sampling every
// interval on its own goroutine. stop waits for the goroutine to exit and
// returns the peak in MB; peak is touched by one goroutine at a time.
//
// In-use heap is MemStats.HeapInuse, read through runtime/metrics as heap
// objects plus unused heap: runtime.ReadMemStats stops the world, which
// at 100 samples a second would perturb what is being measured.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []metrics.Sample
	peak    uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{}), samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64()+h.samples[1].Value.Uint64())
}

func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}
