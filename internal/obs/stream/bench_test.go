package stream_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobieyes/internal/obs/stream"
)

// BenchmarkStreamFanOut measures the engine-side Publish cost with N live
// subscribers, each drained by its own goroutine — the bound on what the
// gateway adds to the result hot path.
func BenchmarkStreamFanOut(b *testing.B) {
	for _, subs := range []int{0, 1, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			tap := stream.NewTap()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < subs; i++ {
				sub, _ := tap.Subscribe(stream.Firehose, 1<<22)
				wg.Add(1)
				go func(sub *stream.Sub) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							sub.Drain()
							sub.Close()
							return
						case <-sub.Ready():
							sub.Drain()
						}
					}
				}(sub)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tap.Publish(int64(i%8+1), int64(i%1000), i%2 == 0)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			if _, _, dropped, _ := tap.Stats(); dropped != 0 {
				b.Fatalf("dropped %d events mid-benchmark", dropped)
			}
		})
	}
}

// BenchmarkGatewayBurst measures delivery through the SSE gateway over
// loopback: events published in bursts of 64, at most 8192 outstanding, to
// one firehose client that reads every frame. One op is one event
// delivered; writes/event is the gateway's write (and flush) count per
// event, the figure the flush window and per-drain batching drive down.
func BenchmarkGatewayBurst(b *testing.B) {
	const burst, outstanding = 64, 8192
	tap := stream.NewTap()
	g := stream.NewGateway(tap)
	g.BufCap = 2 * outstanding
	var writes atomic.Int64
	g.SetCostHook(func(int) { writes.Add(1) })
	mux := http.NewServeMux()
	stream.Attach(mux, g)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/stream")
	if err != nil {
		b.Fatal(err)
	}

	var got atomic.Int64
	live, done := make(chan struct{}), make(chan struct{})
	defer func() {
		resp.Body.Close()
		<-done
	}()
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			switch sc.Text() {
			case "event: live":
				close(live)
			case "event: result":
				got.Add(1)
			}
		}
	}()
	<-live
	writes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%burst == 0 {
			for int64(i)-got.Load() > outstanding-burst {
				time.Sleep(20 * time.Microsecond)
			}
		}
		tap.Publish(int64(i%8+1), int64(i%1000), i%2 == 0)
	}
	for got.Load() < int64(b.N) {
		time.Sleep(20 * time.Microsecond)
	}
	b.StopTimer()
	if _, _, dropped, _ := tap.Stats(); dropped != 0 {
		b.Fatalf("dropped %d events mid-benchmark", dropped)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/event")
}
