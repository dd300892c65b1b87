package main

// Load generation: one process, at most nproc connections. A closed loop
// gives throughput; an open loop at a fixed offered rate gives latency,
// each request timed from when it was due to be sent.

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's outcome. Times are offsets from the phase start.
type sample struct {
	tpl    int
	status int // 0: transport error or timeout
	size   int // response bytes
	// body is the reply kept for checking after the phase; nil when it is
	// byte-equal to the first reply of the same template.
	body   []byte
	digest [32]byte // SHA-256 of the reply, set once the phase has ended
	due    time.Duration
	sent   time.Duration
	done   time.Duration
}

// latency is the request's latency from its due time.
func (s *sample) latency() time.Duration { return s.done - s.due }

// replies keeps the reply bodies of one phase so that they are hashed
// after it ends: the first reply of each template, and any later reply
// that differs from it. While the phase is timed the generator only copies
// a reply or compares it with the first one of its template.
type replies struct {
	first []atomic.Pointer[[]byte]
}

func newReplies(w *workload) *replies {
	return &replies{first: make([]atomic.Pointer[[]byte], len(w.templates))}
}

// keep records the reply body of sm; body is the caller's buffer.
func (r *replies) keep(sm *sample, body []byte) {
	slot := &r.first[sm.tpl]
	if f := slot.Load(); f != nil && bytes.Equal(*f, body) {
		return
	}
	b := bytes.Clone(body)
	slot.CompareAndSwap(nil, &b)
	sm.body = b
}

// digest hashes the kept replies into the samples and drops them.
func (r *replies) digest(samples []sample) {
	sums := make(map[int][32]byte)
	for i := range samples {
		sm := &samples[i]
		switch {
		case sm.status == 0:
		case sm.body != nil:
			sm.digest = sha256.Sum256(sm.body)
			sm.body = nil
		default:
			sum, ok := sums[sm.tpl]
			if !ok {
				sum = sha256.Sum256(*r.first[sm.tpl].Load())
				sums[sm.tpl] = sum
			}
			sm.digest = sum
		}
	}
}

// sender issues requests on one connection slot, reusing its read buffer.
type sender struct {
	d     *daemon
	w     *workload
	r     *replies
	start time.Time
	buf   bytes.Buffer
}

// send posts one template, stamps sm.done once the whole reply is read,
// and keeps the reply for checking.
func (s *sender) send(ti int, sm *sample) {
	status, err := s.post(ti)
	sm.done = time.Since(s.start)
	if err != nil {
		return
	}
	sm.status = status
	sm.size = s.buf.Len()
	s.r.keep(sm, s.buf.Bytes())
}

// post sends template ti and reads the whole reply into s.buf.
func (s *sender) post(ti int) (int, error) {
	t := &s.w.templates[ti]
	readers := make([]io.Reader, len(t.segs))
	for i, seg := range t.segs {
		readers[i] = bytes.NewReader(seg)
	}
	req, err := http.NewRequest(http.MethodPost, s.d.base+kindPath[t.kind], io.MultiReader(readers...))
	if err != nil {
		return 0, err
	}
	req.ContentLength = int64(t.size)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.d.client.Do(req)
	if err != nil {
		return 0, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// drive runs one phase, open-loop at rate or closed-loop when rate is 0.
// Open-loop request i is due at start + i/rate; a request whose due time
// passes while every client is busy waits, and that wait counts in its
// latency. The replies are hashed once the phase's wall time is taken.
func drive(d *daemon, w *workload, tpls []int, rate float64, conns int) ([]sample, time.Duration) {
	out := make([]sample, len(tpls))
	r := newReplies(w)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &sender{d: d, w: w, r: r, start: start}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tpls) {
					return
				}
				sm := &out[i]
				sm.tpl = tpls[i]
				if rate > 0 {
					sm.due = time.Duration(float64(i) / rate * float64(time.Second))
					if wait := sm.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					sm.sent = time.Since(start)
				} else {
					sm.due = time.Since(start)
					sm.sent = sm.due
				}
				s.send(tpls[i], sm)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	r.digest(out)
	return out, wall
}

// percentile is the nearest-rank percentile of sorted values: the
// smallest value with at least p of the values at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of unsorted values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openStats summarizes the open-loop windows of a run. The latency
// percentiles are taken over the calm windows, at least minCalmWindows of
// them (the least disturbed fill in when fewer are calm); a failed request
// counts as the request timeout. p50 is pooled over their samples; p99 is
// the median of each window's own p99, so that one stall, which stretches
// every request of the window it falls in, moves one window's p99 and not
// the run's. lagP99 is the generator's send lateness p99 and backlog the
// requests still outstanding when the last one of a window became due,
// both over the same windows.
type openStats struct {
	p50, p99, lagP99 float64
	windows, n       int
	beyond           int // samples of the windows slower than p99
	backlog          int
}

// minCalmWindows is the fewest open-loop windows the latency metrics are
// taken over.
const minCalmWindows = openSlots / 3

func summarizeOpen(all []slot, ok func(*sample) bool) openStats {
	var st openStats
	windows := calm(all, minCalmWindows)
	var lat, lag, p99s []float64
	for _, s := range windows {
		win := s.samples
		var lastDue time.Duration
		for i := range win {
			sm := &win[i]
			lat = append(lat, latencyMs(sm, ok))
			lag = append(lag, ms(sm.sent-sm.due))
			lastDue = max(lastDue, sm.due)
		}
		for i := range win {
			if win[i].done > lastDue {
				st.backlog++
			}
		}
		p99s = append(p99s, windowP99(s, ok))
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	st.windows = len(windows)
	st.n = len(lat)
	st.p50 = percentile(lat, 0.50)
	st.p99 = median(p99s)
	st.beyond = st.n - sort.SearchFloat64s(lat, math.Nextafter(st.p99, math.Inf(1)))
	st.lagP99 = percentile(lag, 0.99)
	return st
}

// latencyMs is a sample's latency; a failed request counts as the request
// timeout.
func latencyMs(sm *sample, ok func(*sample) bool) float64 {
	if !ok(sm) {
		return ms(requestTimeout)
	}
	return ms(sm.latency())
}

// windowP99 is the nearest-rank p99 latency of one open-loop window.
func windowP99(s slot, ok func(*sample) bool) float64 {
	wl := make([]float64, len(s.samples))
	for i := range s.samples {
		wl[i] = latencyMs(&s.samples[i], ok)
	}
	sort.Float64s(wl)
	return percentile(wl, 0.99)
}
