package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/serve"
	"sparsehamming/internal/spec"
)

func TestWaitDoneParsesSSE(t *testing.T) {
	stream := "event: status\ndata: {\"id\":\"c1-x\",\"status\":\"queued\"}\n\n" +
		": keep-alive\n\n" +
		"event: progress\ndata: {\"done\":1,\n" +
		"data: \"total\":2}\n\n" +
		"event: done\ndata: {\"id\":\"c1-x\",\"status\":\"done\",\"progress\":{\"total\":2,\"done\":2,\"failed\":0}}\n\n" +
		"event: status\ndata: {}\n\n"
	snap, err := waitDone(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "c1-x" || snap.Status != serve.StatusDone || snap.Progress.Done != 2 {
		t.Errorf("done snapshot = %+v", snap)
	}

	var names, data []string
	readSSE(strings.NewReader(stream), func(ev sseEvent) bool {
		names = append(names, ev.Name)
		data = append(data, string(ev.Data))
		return true
	})
	if got := strings.Join(names, ","); got != "status,progress,done,status" {
		t.Errorf("events %s", got)
	}
	if data[1] != "{\"done\":1,\n\"total\":2}" {
		t.Errorf("multi-line data joined as %q", data[1])
	}

	if _, err := waitDone(strings.NewReader("event: status\ndata: {}\n\n")); err == nil {
		t.Error("stream without done accepted")
	}
	if _, err := waitDone(strings.NewReader("event: done\ndata: {not json\n\n")); err == nil {
		t.Error("malformed done payload accepted")
	}
}

// newService starts an in-process campaign service with a shared
// in-memory cache.
func newService(t *testing.T) string {
	t.Helper()
	hub := obs.NewHub()
	srv := serve.New(serve.Config{Runner: noc.NewObservedRunner(2, exp.NewCache(), hub), Obs: hub})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

func TestDriveRunsRequestListsClosedLoop(t *testing.T) {
	costSpec := func(name string, kinds ...string) *spec.Spec {
		sw := spec.Sweep{Mode: "cost", Arch: spec.ArchSpec{Scenario: "a", Rows: 4, Cols: 4}}
		for _, k := range kinds {
			sw.Topologies = append(sw.Topologies, spec.TopologySpec{Kind: k})
		}
		return &spec.Spec{Name: name, Sweeps: []spec.Sweep{sw}}
	}
	add := func(w *Workload, class string, client int, s *spec.Spec) {
		r, err := newRequest(class, client, s)
		if err != nil {
			t.Fatal(err)
		}
		w.Requests = append(w.Requests, r)
	}

	shared := &Workload{}
	for i := 0; i < 6; i++ {
		add(shared, "4x4", anyClient, costSpec(fmt.Sprintf("shared-%d", i), "mesh", "ring", "torus"))
	}
	rw := &Workload{HitClass: "read", ReaderMin: 2}
	for i := 0; i < 3; i++ {
		add(rw, "write", writerClient, costSpec(fmt.Sprintf("write-%d", i), "mesh", "folded-torus"))
	}
	for i := 0; i < 500; i++ {
		add(rw, "read", readerClient, costSpec("read", "mesh"))
	}

	base := newService(t)
	for _, w := range []*Workload{shared, rw} {
		out, wall := drive(context.Background(), base, w, true)
		if wall <= 0 {
			t.Errorf("wall %v", wall)
		}
		c := &checker{}
		c.checkShape(w, out)
		for _, f := range c.failures {
			t.Error(f)
		}
		clientsSeen := map[int]bool{}
		for i, o := range out {
			clientsSeen[o.Client] = true
			if o.Req != i || o.Results == nil || o.TraceFetch <= 0 || o.Latency < o.Submit+o.Wait {
				t.Errorf("outcome %d: req %d, results %v, latency %v", i, o.Req, o.Results != nil, o.Latency)
			}
		}
		if w.ReaderMin == 0 && (len(out) != len(w.Requests) || len(clientsSeen) != clients) {
			t.Errorf("shared queue: ran %d of %d requests on clients %v", len(out), len(w.Requests), clientsSeen)
		}
		if w.ReaderMin > 0 && (len(out) < 3+w.ReaderMin || len(out) == len(w.Requests)) {
			t.Errorf("reader ran %d requests: want at least %d and to stop with the writer", len(out)-3, w.ReaderMin)
		}
	}
}
