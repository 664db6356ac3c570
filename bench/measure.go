package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects one client goroutine's measurements; it is never
// shared, so it needs no lock.
type recorder struct {
	ops    []float64            // op latencies in ms, one per attempted op
	routes map[string][]float64 // request latencies in ms, by route
	failed int
	errs   []string // the first few failure messages
	kept   []kept   // responses kept for the off-clock reference check
	last   kept     // the latest response, so the phase's last one is checked too
}

// kept is one response body held for the off-clock reference check.
type kept struct {
	route string
	// arg locates the expected value: the epoch position of an append
	// cycle, or the per-monitor batch count of an ingest batch.
	arg  int
	body []byte
}

// maxErrs bounds the failure messages a recorder keeps.
const maxErrs = 5

func newRecorder() *recorder { return &recorder{routes: make(map[string][]float64)} }

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) request(route string, d time.Duration) {
	r.routes[route] = append(r.routes[route], ms(d))
}

// keep remembers a response as the latest one and, when sampled, holds a
// copy for the reference check.
func (r *recorder) keep(route string, arg int, body []byte, sampled bool) {
	if sampled {
		r.kept = append(r.kept, kept{route: route, arg: arg, body: append([]byte(nil), body...)})
	}
	r.last.route, r.last.arg, r.last.body = route, arg, append(r.last.body[:0], body...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opFunc performs measured op seq (global across clients) for client c.
// It returns an error when the op failed or its response was wrong.
type opFunc func(ctx context.Context, c, seq int, rec *recorder) error

// closedLoop runs clients goroutines, each sending its next op only after
// the previous one completed, starting at op number first. It stops at
// until (when non-zero) or after limit ops (when positive), whichever
// comes first, and returns one recorder per client.
func closedLoop(ctx context.Context, clients, first int, until time.Time, limit int, op opFunc) []*recorder {
	recs := make([]*recorder, clients)
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !until.IsZero() && !time.Now().Before(until) {
					return
				}
				seq := int(next.Add(1) - 1)
				if limit > 0 && seq >= first+limit {
					return
				}
				start := time.Now()
				err := op(ctx, c, seq, rec)
				rec.ops = append(rec.ops, ms(time.Since(start)))
				if err != nil {
					rec.fail(fmt.Errorf("op %d: %w", seq, err))
				}
			}
		}(c, recs[c])
	}
	wg.Wait()
	return recs
}

// meter accumulates the measured phase: wall time, server CPU time and
// server RSS samples over the intervals the clock runs, and the client
// recorders.
type meter struct {
	pid  int
	wall time.Duration
	cpu  time.Duration
	rss  []float64 // VmRSS samples in bytes
	recs []*recorder
}

// rssEvery is the server RSS sampling period.
const rssEvery = 50 * time.Millisecond

// run measures one closed-loop interval.
func (m *meter) run(ctx context.Context, clients, first int, until time.Time, limit int, op opFunc) error {
	cpu0, err := cpuTime(m.pid)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var samples []float64
	var sampleErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			b, err := residentBytes(m.pid)
			if err != nil {
				sampleErr = err
				return
			}
			samples = append(samples, float64(b))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	recs := closedLoop(ctx, clients, first, until, limit, op)
	m.wall += time.Since(start)
	close(stop)
	wg.Wait()
	if sampleErr != nil {
		return sampleErr
	}
	cpu1, err := cpuTime(m.pid)
	if err != nil {
		return err
	}
	m.cpu += cpu1 - cpu0
	m.rss = append(m.rss, samples...)
	m.recs = append(m.recs, recs...)
	return nil
}

// responses returns every kept response plus each client's last one.
func (m *meter) responses() []kept {
	var out []kept
	for _, r := range m.recs {
		out = append(out, r.kept...)
		if r.last.body != nil {
			out = append(out, r.last)
		}
	}
	return out
}

func (m *meter) ops() int {
	n := 0
	for _, r := range m.recs {
		n += len(r.ops)
	}
	return n
}

func (m *meter) latencies() []float64 {
	var out []float64
	for _, r := range m.recs {
		out = append(out, r.ops...)
	}
	return out
}

func (m *meter) routeLatencies() map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range m.recs {
		for route, v := range r.routes {
			out[route] = append(out[route], v...)
		}
	}
	return out
}

// percentile is the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads printed here match the ones a Python harness computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// maxFailMessages bounds the failure messages printed per workload.
const maxFailMessages = 5

// failures gathers the first failure messages across recorders.
func failures(recs []*recorder) []string {
	var out []string
	for _, r := range recs {
		for _, e := range r.errs {
			if len(out) < maxFailMessages {
				out = append(out, e)
			}
		}
	}
	return out
}
