package sim

import (
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

func TestQueueFIFO(t *testing.T) {
	var q queue[int]
	if q.len() != 0 {
		t.Fatal("new queue not empty")
	}
	for i := 0; i < 300; i++ {
		q.push(i)
	}
	for i := 0; i < 300; i++ {
		if q.len() != 300-i {
			t.Fatalf("len = %d, want %d", q.len(), 300-i)
		}
		if got := *q.front(); got != i {
			t.Fatalf("front = %d, want %d", got, i)
		}
		if got := q.pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	// Interleaved push/pop across the compaction threshold.
	for i := 0; i < 1000; i++ {
		q.push(i)
		if i%2 == 1 {
			q.pop()
		}
	}
	if q.len() != 500 {
		t.Fatalf("len after interleave = %d, want 500", q.len())
	}
}

func TestClassVCRangePartition(t *testing.T) {
	rg, err := topo.NewRing(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(rg, route.Auto) // 2 classes
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topo: rg, Routing: r, NumVCs: 8, BufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	lo0, hi0 := s.classVCRange(0)
	lo1, hi1 := s.classVCRange(1)
	if lo0 != 0 || hi0 != 4 || lo1 != 4 || hi1 != 8 {
		t.Errorf("ranges [%d,%d) [%d,%d), want [0,4) [4,8)", lo0, hi0, lo1, hi1)
	}
	// Odd split: 3 classes over 8 VCs gives the remainder to the last.
	sn, err := topo.NewSlimNoC(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := route.For(sn, route.Auto) // 2 classes (diameter 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Topo: sn, Routing: rs, NumVCs: 5, BufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	l0, h0 := s2.classVCRange(0)
	l1, h1 := s2.classVCRange(1)
	if h0-l0 != 2 || h1-l1 != 3 || h1 != 5 {
		t.Errorf("odd split ranges [%d,%d) [%d,%d)", l0, h0, l1, h1)
	}
}

func TestDefaultsFillUnset(t *testing.T) {
	m, _ := topo.NewMesh(4, 4)
	r, _ := route.For(m, route.Auto)
	cfg := Config{Topo: m, Routing: r}
	cfg.Defaults()
	if cfg.NumVCs != 8 || cfg.BufDepth != 32 || cfg.RouterDelay != 3 || cfg.PacketLen != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Pattern == nil || cfg.Warmup == 0 || cfg.Measure == 0 || cfg.Drain == 0 {
		t.Error("phase defaults missing")
	}
	// Explicit values survive.
	cfg2 := Config{Topo: m, Routing: r, NumVCs: 2, PacketLen: 1}
	cfg2.Defaults()
	if cfg2.NumVCs != 2 || cfg2.PacketLen != 1 {
		t.Error("explicit values overwritten")
	}
}

func TestBuildPortWiring(t *testing.T) {
	m, _ := topo.NewMesh(3, 3)
	r, _ := route.For(m, route.Auto)
	cfg := Config{Topo: m, Routing: r, NumVCs: 2, BufDepth: 2}
	sh, err := NewShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every directed channel's endpoints agree with the routers' port
	// wiring that references it.
	for i := range sh.chans {
		c := &sh.chans[i]
		if sh.outChans[c.from][c.outPort] != int32(i) {
			t.Fatalf("chan %d not wired to sender output port", i)
		}
		if sh.inChans[c.to][c.inPort] != int32(i) {
			t.Fatalf("chan %d not wired to receiver input port", i)
		}
	}
	// Channel count = 2 * links.
	if len(sh.chans) != 2*m.NumLinks() {
		t.Errorf("%d channels for %d links", len(sh.chans), m.NumLinks())
	}
	// Degree-matched port counts plus injection/ejection.
	center := m.Index(topo.Coord{Row: 1, Col: 1})
	if in, out := len(sh.inChans[center])+1, len(sh.outChans[center])+1; in != 5 || out != 5 {
		t.Errorf("center router ports in=%d out=%d, want 5", in, out)
	}

	// The SoA engine's port-offset table agrees with the wiring: the
	// center router owns 5 global ports, and the table covers every
	// router exactly once.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb := soaOf(s).portBase
	if len(pb) != m.NumTiles()+1 {
		t.Fatalf("portBase has %d entries, want %d", len(pb), m.NumTiles()+1)
	}
	for id := 0; id < m.NumTiles(); id++ {
		if got, want := int(pb[id+1]-pb[id]), m.Degree(id)+1; got != want {
			t.Errorf("router %d owns %d ports, want %d", id, got, want)
		}
	}
}
