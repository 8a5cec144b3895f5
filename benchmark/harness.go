package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ack is one acknowledged write commit, kept for the post-run audit.
type ack struct{ start, commit uint64 }

// phaseStats is what one phase observed. Counts cover transactions that
// finished inside the phase window.
type phaseStats struct {
	attempted, committed, aborted, failed int64
	rowsRead, rowsWritten                 int64
	slices                                []int64 // commits per slice (closed phases)
	sliceLen                              time.Duration
	windows                               [][]int64 // due → decision, ns, decided transactions, per window by due time (open phase)
	late                                  []int64   // sendable → actually sent, ns (open phase)
	measured                              int64     // arrivals due after the lead-in (open phase)
	acks                                  []ack
	firstErr                              error

	cpuNS, mallocs, allocBytes int64         // process-wide, over the phase (closed phases)
	elapsed                    time.Duration // the window commits were counted in (closed phases)
}

func (p *phaseStats) record(o outcome) {
	p.attempted++
	p.rowsRead += int64(o.rowsRead)
	p.rowsWritten += int64(o.rowsWritten)
	switch {
	case o.err != nil:
		p.failed++
		if p.firstErr == nil {
			p.firstErr = o.err
		}
	case o.committed:
		p.committed++
		if o.wrote {
			p.acks = append(p.acks, ack{o.start, o.commit})
		}
	default:
		p.aborted++
	}
}

func (p *phaseStats) merge(q *phaseStats) {
	p.attempted += q.attempted
	p.committed += q.committed
	p.aborted += q.aborted
	p.failed += q.failed
	p.rowsRead += q.rowsRead
	p.rowsWritten += q.rowsWritten
	for i, n := range q.slices {
		p.slices[i] += n
	}
	for i, win := range q.windows {
		p.windows[i] = append(p.windows[i], win...)
	}
	p.late = append(p.late, q.late...)
	p.measured += q.measured
	p.acks = append(p.acks, q.acks...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// usage is what the process has consumed so far: user plus system CPU
// time, heap objects and heap bytes allocated.
type usage struct{ cpuNS, mallocs, allocBytes int64 }

// hostSteal is the CPU time, summed over processors, that the hypervisor
// gave to someone else while this machine had work to run: the first line
// of /proc/stat, eighth value, in ticks of 10 ms. Zero where the file or
// the field is missing.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    int64(ms.Mallocs),
		allocBytes: int64(ms.TotalAlloc),
	}
}

// openWindow is the length of the open phase's latency windows: a quarter
// second holds over a thousand arrivals at the slowest workload's rate, so
// each window's 99th percentile has ten samples beyond it, and a stall
// shorter than that disturbs one window, not the run's median.
const openWindow = 250 * time.Millisecond

// harness drives one built system through its phases.
type harness struct {
	spec    *workloadSpec
	sys     *system
	in      *inputs
	lt      *ledgerTrace
	tracing atomic.Bool // current slice is a traced one
	cursor  []int       // next pool index per worker, carried across phases
	pace    []*alarm    // open-phase schedule timer per worker
}

func newHarness(spec *workloadSpec, sys *system, in *inputs, lt *ledgerTrace) (*harness, error) {
	h := &harness{spec: spec, sys: sys, in: in, lt: lt, cursor: make([]int, len(sys.workers))}
	for w := range h.cursor {
		h.cursor[w] = w
		a, err := newAlarm()
		if err != nil {
			h.close()
			return nil, err
		}
		h.pace = append(h.pace, a)
	}
	return h, nil
}

func (h *harness) close() {
	for _, a := range h.pace {
		a.close()
	}
}

// next hands worker w its next generated request: the pool is dealt round
// robin, so the assignment depends only on the seed.
func (h *harness) next(w int) *request {
	r := &h.in.reqs[h.cursor[w]%len(h.in.reqs)]
	h.cursor[w] += len(h.sys.workers)
	return r
}

func (h *harness) setTracing(on bool) {
	h.tracing.Store(on)
	h.lt.on.Store(on)
	if h.sys.srv != nil {
		h.sys.srv.SetTracing(on)
	}
}

// closed runs every worker back to back for dur: each sends its next
// transaction only after the previous one was decided. Commits are counted
// per slice. With alternate set, odd slices are traced and even ones are
// not, under one continuous load, so the two rates share process, heap and
// connections.
func (h *harness) closed(dur, slice time.Duration, alternate bool) *phaseStats {
	nslices := int(dur / slice)
	if nslices < 1 {
		nslices = 1
	}
	sliceLen := dur / time.Duration(nslices) // slice, unless dur is shorter
	total := &phaseStats{slices: make([]int64, nslices), sliceLen: sliceLen}
	per := make([]*phaseStats, len(h.sys.workers))
	before := readUsage()
	start := time.Now()
	var flip sync.WaitGroup
	if alternate {
		flip.Add(1)
		go func() {
			defer flip.Done()
			for k := 0; k < nslices; k++ {
				h.setTracing(k%2 == 1)
				time.Sleep(time.Until(start.Add(time.Duration(k+1) * sliceLen)))
			}
			h.setTracing(false)
		}()
	}
	var wg sync.WaitGroup
	for w := range h.sys.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := h.sys.workers[w]
			st := &phaseStats{slices: make([]int64, nslices)}
			per[w] = st
			for seq := uint64(0); time.Since(start) < dur; seq++ {
				wk.tr.startTxn(h.tracing.Load() && seq%h.spec.traceEvery == 0, uint64(w)<<40|seq)
				root := wk.tr.begin(spTxn)
				o := wk.exec(h.next(w))
				wk.tr.end(root)
				slice := int(time.Since(start) / sliceLen)
				if slice >= nslices {
					break
				}
				st.record(o)
				if o.committed {
					st.slices[slice]++
				}
			}
		}(w)
	}
	wg.Wait()
	flip.Wait()
	total.elapsed = dur // transactions that finish later are not counted
	after := readUsage()
	for _, st := range per {
		total.merge(st)
	}
	total.cpuNS = after.cpuNS - before.cpuNS
	total.mallocs = after.mallocs - before.mallocs
	total.allocBytes = after.allocBytes - before.allocBytes
	return total
}

// open offers rate transactions per second on a fixed, jitter-free
// schedule: arrival i is due at start + i/rate and belongs to session
// i mod workers, whatever the system's speed. Each transaction is timed
// from when it was due, so a stall charges every arrival queued behind it.
// The first lead of the schedule lets the system settle at the new load and
// is not measured; the dur after it is, in windows of openWindow by due time.
// late records how far behind the generator itself ran: the time from when
// the session could have sent (due, or its previous decision if later) to
// when it did.
func (h *harness) open(rate float64, lead, dur time.Duration) *phaseStats {
	n := int(rate * (lead + dur).Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	nwin := int(dur / openWindow)
	if nwin < 1 {
		nwin = 1
	}
	winLen := dur / time.Duration(nwin)
	total := &phaseStats{windows: make([][]int64, nwin)}
	per := make([]*phaseStats, len(h.sys.workers))
	// A caller whose arrivals come less than a millisecond apart would
	// spend the time between them parking and being woken, and how long
	// the Go scheduler takes over that (25 or 55 µs, from one process to
	// the next) would be most of a 50 µs latency.
	spin := interval*time.Duration(len(h.sys.workers)) < time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range h.sys.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := h.sys.workers[w]
			st := &phaseStats{windows: make([][]int64, nwin)}
			per[w] = st
			wk.tr.startTxn(false, 0)
			free := start // when this session's previous transaction was decided
			for i := w; i < n; i += len(h.sys.workers) {
				offset := time.Duration(i) * interval
				due := start.Add(offset)
				if err := h.waitUntil(w, due, spin); err != nil {
					st.record(outcome{err: err})
					continue
				}
				sendable := due
				if due.Before(free) {
					sendable = free
				}
				late := int64(time.Since(sendable))
				o := wk.exec(h.next(w))
				free = time.Now()
				st.record(o)
				if offset < lead {
					continue
				}
				st.measured++
				st.late = append(st.late, late)
				if win := int((offset - lead) / winLen); o.err == nil && win < nwin {
					st.windows[win] = append(st.windows[win], int64(free.Sub(due)))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, st := range per {
		total.merge(st)
	}
	for _, win := range total.windows {
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
	}
	sort.Slice(total.late, func(i, j int) bool { return total.late[i] < total.late[j] })
	return total
}

// waitUntil holds worker w back until due: parked on its alarm, or, with
// spin set, yielding the processor to whatever else is runnable until then.
func (h *harness) waitUntil(w int, due time.Time, spin bool) error {
	if !spin {
		return h.pace[w].sleep(time.Until(due))
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return nil
}

// windowQuantile is the q-quantile of each window's latencies, in ns.
func (p *phaseStats) windowQuantile(q float64) []float64 {
	out := make([]float64, len(p.windows))
	for i, win := range p.windows {
		out[i] = quantile(win, q)
	}
	return out
}

// within counts the measured open-phase transactions decided by limit.
func (p *phaseStats) within(limit int64) (n int64) {
	for _, win := range p.windows {
		n += int64(sort.Search(len(win), func(i int) bool { return win[i] > limit }))
	}
	return n
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rates is the committed transactions per second of each slice.
func (p *phaseStats) rates() []float64 {
	tps := make([]float64, len(p.slices))
	for k, n := range p.slices {
		tps[k] = float64(n) / p.sliceLen.Seconds()
	}
	return tps
}

// byParity splits per-slice values into even and odd slices.
func byParity(xs []float64) (even, odd []float64) {
	for k, x := range xs {
		if k%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	return even, odd
}

// fracAbove is the share of a sorted sample above limit.
func fracAbove(sorted []int64, limit int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > limit })
	return float64(len(sorted)-i) / float64(len(sorted))
}
