package sim

import (
	"strings"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

func meshConfig(t *testing.T, rate float64) Config {
	t.Helper()
	m, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: rate,
		Seed: 11, Warmup: 500, Measure: 3000, Drain: 12000,
	}
}

func TestInOrderDelivery(t *testing.T) {
	for _, rate := range []float64{0.1, 0.6} {
		st, err := RunConfig(meshConfig(t, rate))
		if err != nil {
			t.Fatal(err)
		}
		if st.OrderViolations != 0 {
			t.Errorf("rate %v: %d out-of-order flits", rate, st.OrderViolations)
		}
	}
}

func TestPercentilesOrdered(t *testing.T) {
	st, err := RunConfig(meshConfig(t, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if st.P50PacketLatency <= 0 {
		t.Fatal("p50 not measured")
	}
	if st.P50PacketLatency > st.AvgPacketLatency*1.5 {
		t.Errorf("p50 %v far above mean %v", st.P50PacketLatency, st.AvgPacketLatency)
	}
	if st.P99PacketLatency < st.P50PacketLatency {
		t.Errorf("p99 %v below p50 %v", st.P99PacketLatency, st.P50PacketLatency)
	}
	if float64(st.MaxPacketLatency) < st.P99PacketLatency {
		t.Errorf("max %v below p99 %v", st.MaxPacketLatency, st.P99PacketLatency)
	}
}

func TestMaxLinkUtilizationBounds(t *testing.T) {
	st, err := RunConfig(meshConfig(t, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxLinkUtilization <= 0 || st.MaxLinkUtilization > 1 {
		t.Errorf("max link utilization %v outside (0,1]", st.MaxLinkUtilization)
	}
	// Higher load -> higher bottleneck utilization.
	lo, err := RunConfig(meshConfig(t, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if lo.MaxLinkUtilization >= st.MaxLinkUtilization {
		t.Errorf("utilization at 0.05 (%v) not below 0.3 (%v)",
			lo.MaxLinkUtilization, st.MaxLinkUtilization)
	}
}

func TestLoadLatencyCurveMonotone(t *testing.T) {
	curve, err := LoadLatencyCurve(nil, meshConfig(t, 0), []float64{0.05, 0.15, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].AvgPacketLatency < curve[i-1].AvgPacketLatency {
			t.Errorf("latency decreased from %.1f to %.1f at higher load",
				curve[i-1].AvgPacketLatency, curve[i].AvgPacketLatency)
		}
		if curve[i].AcceptedRate < curve[i-1].AcceptedRate {
			t.Errorf("accepted rate decreased below saturation")
		}
	}
}

func TestSaturationBetweenBounds(t *testing.T) {
	cfg := meshConfig(t, 0)
	cfg.Measure = 2000
	res, err := SaturationThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 4x4 mesh under uniform traffic saturates somewhere between 20%
	// and 90% of capacity with 4 VCs.
	if res.SaturationRate < 0.2 || res.SaturationRate > 0.9 {
		t.Errorf("mesh saturation %v outside sanity band", res.SaturationRate)
	}
	if res.ZeroLoadLatency <= 0 {
		t.Error("zero-load latency missing")
	}
	if len(res.Samples) == 0 {
		t.Error("no probe samples recorded")
	}
	// The curve samples should bracket the saturation point.
	var sawBelow, sawAbove bool
	for _, s := range res.Samples {
		if s.OfferedRate <= res.SaturationRate {
			sawBelow = true
		} else {
			sawAbove = true
		}
	}
	if !sawBelow || !sawAbove {
		t.Error("binary search did not bracket the saturation point")
	}
}

func TestTracerCounts(t *testing.T) {
	cfg := meshConfig(t, 0.1)
	tr := &CountingTracer{}
	cfg.Tracer = tr
	st, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Injects == 0 || tr.Ejects == 0 {
		t.Fatal("tracer saw no traffic")
	}
	// Everything injected is eventually ejected after the drain.
	if tr.Injects != tr.Ejects {
		t.Errorf("injects %d != ejects %d", tr.Injects, tr.Ejects)
	}
	// Traversals = sum over flits of hops; averages to avgHops per flit.
	perFlit := float64(tr.Traversals) / float64(tr.Ejects)
	if perFlit < st.AvgHops*0.8 || perFlit > st.AvgHops*1.2 {
		t.Errorf("traversals per flit %.2f vs avg hops %.2f", perFlit, st.AvgHops)
	}
}

func TestPacketTracerSequence(t *testing.T) {
	cfg := meshConfig(t, 0.05)
	tr := &PacketTracer{Watch: map[int32]bool{0: true, 1: true}}
	cfg.Tracer = tr
	if _, err := RunConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events for watched packets")
	}
	// Per packet: events are cycle-ordered and start with an inject.
	byPkt := map[int32][]Event{}
	for _, ev := range tr.Events {
		if !tr.Watch[ev.Pkt] {
			t.Fatalf("unwatched packet %d traced", ev.Pkt)
		}
		byPkt[ev.Pkt] = append(byPkt[ev.Pkt], ev)
	}
	for pkt, evs := range byPkt {
		if evs[0].Kind != EvInject {
			t.Errorf("packet %d first event %v, want inject", pkt, evs[0].Kind)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Cycle < evs[i-1].Cycle {
				t.Errorf("packet %d events out of order", pkt)
			}
		}
		last := evs[len(evs)-1]
		if last.Kind != EvEject {
			t.Errorf("packet %d last event %v, want eject", pkt, last.Kind)
		}
	}
}

func TestWriterTracerFormat(t *testing.T) {
	var buf strings.Builder
	w := &WriterTracer{W: &buf}
	w.Trace(Event{Cycle: 142, Kind: EvTraverse, Pkt: 17, Seq: 2, Node: 5, Peer: 6, VC: 3})
	w.Trace(Event{Cycle: 150, Kind: EvEject, Pkt: 17, Seq: 2, Node: 6, Peer: -1, VC: 3})
	out := buf.String()
	if !strings.Contains(out, "@142 traverse pkt=17.2 5->6 vc=3") {
		t.Errorf("traverse line: %q", out)
	}
	if !strings.Contains(out, "@150 eject pkt=17.2 node=6 vc=3") {
		t.Errorf("eject line: %q", out)
	}
}
