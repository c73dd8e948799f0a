package livenet

import (
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits, up to a deadline, for the goroutine count to fall
// back to before, and returns the count it ended at. Goroutines finish
// asynchronously after the calls that stop them return, so the count is
// polled rather than read once.
func settledGoroutines(before int) int {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestClusterStopLeaksNoGoroutines: a started cluster serving its metrics
// endpoints, scraped once, leaves no goroutine behind once stopped — not
// the read, sync or serve loops, nor the HTTP servers and their
// connections.
func TestClusterStopLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster")
	}
	before := runtime.NumGoroutine()
	c, err := NewCluster(ClusterConfig{
		N:       4,
		F:       1,
		SyncInt: 50 * time.Millisecond,
		MaxWait: 25 * time.Millisecond,
		WayOff:  time.Second,
		Key:     []byte("leak-key"),
		Metrics: true,
		Serve:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.WaitConverged(20*time.Millisecond, 2, 10*time.Second); err != nil {
		c.Stop()
		t.Fatal(err)
	}
	// The scrape's client side keeps no connection: only server-side
	// goroutines can outlive it, and Stop must end those.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := range c.Nodes() {
		resp, err := client.Get("http://" + c.MetricsAddr(i) + "/metrics")
		if err != nil {
			c.Stop()
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(before); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the cluster, %d after Stop:\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestClosedUnstartedNodeLeaksNoGoroutines: a node built with every
// optional endpoint configured and closed without running starts nothing
// that outlives Close.
func TestClosedUnstartedNodeLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := New(Config{
		ID: 0, F: 1, Key: []byte("leak-key"),
		Listen:  "127.0.0.1:0",
		SyncInt: time.Second, MaxWait: 100 * time.Millisecond, WayOff: time.Second,
		Peers: map[int]string{1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3"},
		Serve: ServeConfig{Addr: "127.0.0.1:0"},
		Ops:   OpsConfig{MetricsAddr: "127.0.0.1:0", SpanBuffer: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(before); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before New, %d after Close:\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
