package main

import (
	"fmt"
	"time"

	"mobiledist/internal/netrt"
	"mobiledist/internal/sim"
)

// The overload probe reproduces a known defect: over UDP, an open loop
// above the cluster's capacity collapses (retransmissions crowd out new
// data, heartbeats time out, relays are declared dead and traffic parks on
// them), while TCP at the same rate keeps up. It is not a workload: it
// prints what it saw and claims nothing.
const (
	overloadRate  = 8000
	overloadSends = 20000
	overloadDrain = 15 * time.Second
)

func runProbe(name string, seed uint64) error {
	if name != "udp-overload" {
		return fmt.Errorf("unknown probe %q (want udp-overload)", name)
	}
	for _, transport := range []string{netrt.TransportUDP, netrt.TransportTCP} {
		if err := overload(transport, seed); err != nil {
			return err
		}
	}
	return nil
}

func overload(transport string, seed uint64) error {
	size := netSize{transport: transport, m: 3, n: 6, rate: overloadRate, window: 1}
	rec := newRecorder(time.Now(), 0)
	c, err := startCluster(size, seed, rec, nil, overloadSends)
	if err != nil {
		return err
	}
	defer c.lb.Stop()
	dg0, err := readDgram(c.lb)
	if err != nil {
		return err
	}
	health := startHealthSampler(c.lb.Sys, 5*time.Millisecond)
	g := &loadgen{c: c, rec: rec, rng: sim.NewRNG(seed), n: size.n, seq: make([]uint32, size.n)}
	t0 := time.Now()
	late := g.openLoop(overloadSends, overloadRate)
	offered := time.Since(t0)
	drained := c.lb.Sys.WaitIdle(overloadDrain)
	elapsed := time.Since(t0)
	health.stop()
	if health.err != nil {
		return health.err
	}
	dg1, err := readDgram(c.lb)
	if err != nil {
		return err
	}
	var st hubStatus
	if err := getStatus(c.lb.Sys.HealthHandler(), &st); err != nil {
		return err
	}
	var delivered int64
	c.lb.Sys.Do(func() {
		for _, n := range c.sink.count[:g.next] {
			if n > 0 {
				delivered++
			}
		}
	})
	retrans := 0.0
	if p := dg1.packets - dg0.packets; p > 0 {
		retrans = float64(dg1.retransmits-dg0.retransmits) / float64(p)
	}
	fmt.Printf("transport=%s rate=%d/s sends=%d offered_in=%.2fs generator_late_max=%.1fms\n",
		transport, overloadRate, g.next, offered.Seconds(), float64(late)/1e6)
	fmt.Printf("  delivered %d of %d (%.1f%%) after %.1fs, drained=%v\n",
		delivered, g.next, 100*float64(delivered)/float64(g.next), elapsed.Seconds(), drained)
	fmt.Printf("  dgram.retransmit_frac %.3f, netrt.heartbeat_rtt_p99_us %d, dead peers now %d, suspect-or-dead peers at worst %d, netrt.parked_on_dead %d\n",
		retrans, st.HeartbeatRTT.P99US, st.DeadPeers, health.suspMax, st.ParkedOnDead)
	return nil
}
