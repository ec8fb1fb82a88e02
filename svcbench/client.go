package main

// The closed-loop client: two goroutines, each with one keep-alive
// connection, submit campaigns, wait on the SSE stream for "done",
// and read the CSV in full before sending their next request.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sparsehamming/internal/serve"
)

// clients is the number of closed-loop clients (one connection each).
const clients = 2

// sseEvent is one Server-Sent Events message.
type sseEvent struct {
	Name string
	Data []byte
}

// readSSE parses a text/event-stream, calling fn per dispatched event
// until fn returns false or the stream ends. Comment lines (":")
// and fields other than event/data are ignored; multi-line data is
// joined with newlines, as the SSE specification says.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var ev sseEvent
	var data [][]byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if ev.Name != "" || data != nil {
				ev.Data = bytes.Join(data, []byte("\n"))
				if ev.Name == "" {
					ev.Name = "message"
				}
				if !fn(ev) {
					return nil
				}
			}
			ev, data = sseEvent{}, nil
		case line[0] == ':':
		default:
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(field) {
			case "event":
				ev.Name = string(value)
			case "data":
				data = append(data, append([]byte(nil), value...))
			}
		}
	}
	return sc.Err()
}

// waitDone reads an event stream until its "done" event and returns
// the terminal campaign snapshot it carries.
func waitDone(r io.Reader) (serve.CampaignJSON, error) {
	var snap serve.CampaignJSON
	found := false
	var derr error
	err := readSSE(r, func(ev sseEvent) bool {
		if ev.Name != "done" {
			return true
		}
		found = true
		derr = json.Unmarshal(ev.Data, &snap)
		return false
	})
	if err == nil {
		err = derr
	}
	if err == nil && !found {
		err = errors.New("event stream ended without a done event")
	}
	return snap, err
}

// Outcome is one executed request: its client-side spans and what the
// service returned.
type Outcome struct {
	Req    int // index into Workload.Requests
	Client int
	ID     string
	// Start is when the POST was sent; Submit, Wait and Fetch are the
	// client spans (POST round trip, SSE wait for done, CSV read) and
	// Latency their sum, POST sent to last CSV byte.
	Start               time.Time
	Submit, Wait, Fetch time.Duration
	Latency             time.Duration
	Done                serve.CampaignJSON
	CSV                 []byte
	// Results is fetched after the CSV when requested, taking
	// TraceFetch; that time is outside Latency and the pass's wall.
	Results    *serve.ResultsJSON
	TraceFetch time.Duration
	Err        error
}

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// get sends a GET and returns the body of a 200 response.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// fetchResults reads a campaign's JSON results document, with the
// per-job execution traces when traced.
func fetchResults(ctx context.Context, c *http.Client, base, id string, traced bool) (*serve.ResultsJSON, error) {
	url := base + "/v1/campaigns/" + id + "/results"
	if traced {
		url += "?debug=trace"
	}
	body, err := get(ctx, c, url)
	if err != nil {
		return nil, err
	}
	var res serve.ResultsJSON
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding results of %s: %w", id, err)
	}
	return &res, nil
}

// do executes one campaign request: POST the spec, wait for done on
// the event stream, read the CSV. A campaign that ends in any state
// but done, or with failed jobs, is a failed request.
func do(ctx context.Context, c *http.Client, base string, body []byte) Outcome {
	var o Outcome
	o.Start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		o.Err = err
		return o
	}
	sub, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, bytes.TrimSpace(sub))
	}
	var snap serve.CampaignJSON
	if err == nil {
		err = json.Unmarshal(sub, &snap)
	}
	if err != nil {
		o.Err = err
		return o
	}
	o.ID = snap.ID
	t1 := time.Now()
	o.Submit = t1.Sub(o.Start)

	ereq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+o.ID+"/events", nil)
	if err != nil {
		o.Err = err
		return o
	}
	eresp, err := c.Do(ereq)
	if err != nil {
		o.Err = err
		return o
	}
	o.Done, err = waitDone(eresp.Body)
	// Drain the (closing) stream so the connection is reused.
	io.Copy(io.Discard, eresp.Body)
	eresp.Body.Close()
	if err != nil {
		o.Err = fmt.Errorf("events of %s: %w", o.ID, err)
		return o
	}
	t2 := time.Now()
	o.Wait = t2.Sub(t1)

	o.CSV, err = get(ctx, c, base+"/v1/campaigns/"+o.ID+"/results?format=csv")
	t3 := time.Now()
	o.Fetch = t3.Sub(t2)
	o.Latency = t3.Sub(o.Start)
	switch {
	case err != nil:
		o.Err = err
	case o.Done.Status != serve.StatusDone:
		o.Err = fmt.Errorf("campaign %s ended %s: %s", o.ID, o.Done.Status, o.Done.Error)
	case o.Done.Progress.Failed > 0:
		o.Err = fmt.Errorf("campaign %s: %d failed jobs", o.ID, o.Done.Progress.Failed)
	}
	return o
}

// drive runs the workload's request list closed-loop against base and
// returns the outcomes of the requests it ran, which are a prefix of
// the list, and the wall time from the first POST to the last CSV
// byte. Requests pinned to a client go to that client in list order;
// the rest form a queue both clients pull from. With w.ReaderMin set,
// the reader stops once the other client is done and it has run
// ReaderMin requests.
//
// With traced set, each client also fetches the campaign's results
// with execution traces right after the CSV: shserved keeps only the
// most recent 256 job traces, fewer than a workload's jobs, so they
// cannot wait until the pass ends. A client's clock stops during
// these fetches: the wall is the longest client's time minus its own
// trace fetches, so it compares with an untraced pass's.
func drive(ctx context.Context, base string, w *Workload, traced bool) ([]Outcome, time.Duration) {
	out := make([]Outcome, len(w.Requests))
	ran := make([]bool, len(w.Requests))
	var shared []int
	pinned := make([][]int, clients)
	for i, r := range w.Requests {
		if r.Client == anyClient {
			shared = append(shared, i)
		} else {
			pinned[r.Client] = append(pinned[r.Client], i)
		}
	}
	var next atomic.Int64
	var busy atomic.Int64 // clients still working through their lists
	busy.Store(clients)
	var wg sync.WaitGroup
	walls := make([]time.Duration, clients)
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var paused time.Duration
			defer func() { walls[ci] = time.Since(start) - paused }()
			run := func(i int) {
				o := do(ctx, c, base, w.Requests[i].Body)
				if traced && o.Err == nil {
					t := time.Now()
					o.Results, o.Err = fetchResults(ctx, c, base, o.ID, true)
					o.TraceFetch = time.Since(t)
					paused += o.TraceFetch
				}
				o.Req, o.Client = i, ci
				out[i], ran[i] = o, true
			}
			resubmit := w.ReaderMin > 0 && ci == readerClient
			if resubmit {
				busy.Add(-1)
			}
			for k, i := range pinned[ci] {
				if resubmit && k >= w.ReaderMin && busy.Load() == 0 {
					break
				}
				run(i)
			}
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shared) {
					break
				}
				run(shared[k])
			}
			if !resubmit {
				busy.Add(-1)
			}
		}(ci)
	}
	wg.Wait()
	wall := slices.Max(walls)
	n := 0
	for n < len(ran) && ran[n] {
		n++
	}
	return out[:n], wall
}
