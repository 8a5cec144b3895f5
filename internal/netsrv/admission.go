package netsrv

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// IngressConfig bounds what the front door lets through to the oracle.
// Install it on Server.Ingress before Listen. Every limit is enforced
// without allocating per request: the token buckets are per-tenant structs
// refilled arithmetically, the queues are counters plus condition variables
// (the parked goroutine IS the queue entry), and shed replies are built into
// the pooled handler context.
type IngressConfig struct {
	// Tenants is the number of admission classes (tenant ids 0..Tenants-1
	// in the envelope header; bare frames are tenant 0). Out-of-range
	// tenant ids are clamped to tenant 0. Default 1.
	Tenants int
	// MaxInflight bounds data-plane requests executing concurrently
	// (decoding, coalescer wait, oracle call). Default 256.
	MaxInflight int
	// QueueCap bounds how many admitted-but-waiting requests one tenant
	// may park when the inflight limit is reached; arrivals beyond it are
	// shed immediately with codeOverload. Default 128.
	QueueCap int
	// Weights sets the weighted-round-robin share each tenant gets when
	// draining the queues (len Tenants; missing or non-positive entries
	// default to 1). A tenant with weight 3 is granted 3 slots for every 1
	// a weight-1 tenant gets while both have waiters.
	Weights []int
	// Rate is the per-tenant token-bucket refill in requests/second
	// (0 = unlimited); Burst is the bucket depth (default max(Rate, 1)).
	Rate  float64
	Burst int
	// MaxSessions caps live multiplexed sessions server-wide; opening a
	// session beyond it is shed with codeOverload. 0 = unlimited.
	MaxSessions int
}

// shed verdicts returned by admitter.tryAdmit.
const (
	admitOK      = iota // admitted, slot held: call release() when done
	admitWait           // queue slot reserved: call wait() off the read loop
	admitShed           // bounded queue full
	admitRated          // token bucket empty
	admitExpired        // deadline already passed
)

// depthBuckets is the fixed size of the queue-depth histogram: depth d is
// recorded in bucket bits.Len64(d), so the histogram covers any depth with
// power-of-two resolution and zero allocation.
const depthBuckets = 32

// tenantQ is one tenant's admission state. The verdict counters and the
// queue-depth histogram live here, per tenant, so the ingress breakdown the
// operator sees is keyed by admission class. The hot path pays exactly one
// atomic add per verdict.
type tenantQ struct {
	bucket  tokenBucket
	weight  int
	credit  int // smooth-WRR running credit, guarded by admitter.mu
	waiting int // parked requests, guarded by admitter.mu
	grants  int // wakeups issued but not yet consumed, guarded by admitter.mu
	cond    *sync.Cond

	admitted    atomic.Int64
	shed        atomic.Int64
	rateLimited atomic.Int64
	expired     atomic.Int64
	depthHist   [depthBuckets]atomic.Int64
}

// admitter is the server's admission gate: a shared inflight limit, bounded
// per-tenant wait queues drained by smooth weighted round-robin, and a token
// bucket per tenant. The fast path (uncontended admit and release) is two
// short critical sections and no allocation; the parked path blocks the
// handler goroutine on its tenant's condition variable, so the queue needs
// no nodes.
type admitter struct {
	mu          sync.Mutex
	inflight    int
	maxInflight int
	queueCap    int
	tenants     []tenantQ
	closed      bool
}

func newAdmitter(cfg IngressConfig) *admitter {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 128
	}
	a := &admitter{
		maxInflight: cfg.MaxInflight,
		queueCap:    cfg.QueueCap,
		tenants:     make([]tenantQ, cfg.Tenants),
	}
	for i := range a.tenants {
		t := &a.tenants[i]
		t.weight = 1
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			t.weight = cfg.Weights[i]
		}
		t.cond = sync.NewCond(&a.mu)
		if cfg.Rate > 0 {
			burst := cfg.Burst
			if burst <= 0 {
				burst = int(cfg.Rate)
				if burst < 1 {
					burst = 1
				}
			}
			t.bucket.init(cfg.Rate, float64(burst))
		}
	}
	return a
}

// clampTenant maps an envelope tenant byte into the configured range.
func (a *admitter) clampTenant(t byte) int {
	if int(t) >= len(a.tenants) {
		return 0
	}
	return int(t)
}

// tryAdmit makes the frame-boundary admission decision for one data-plane
// request: it either grants an execution slot (admitOK), reserves a queue
// slot the caller must redeem with wait() off the read loop (admitWait), or
// sheds. Shedding is the cheap outcome by design — a counter bump and a
// 10-byte reply, no goroutine, no oracle work.
func (a *admitter) tryAdmit(tenant int, deadline time.Time) int {
	t := &a.tenants[tenant]
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		t.expired.Add(1)
		return admitExpired
	}
	if t.bucket.rate > 0 && !t.bucket.take() {
		t.rateLimited.Add(1)
		return admitRated
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		t.shed.Add(1)
		return admitShed
	}
	t.depthHist[bits.Len64(uint64(t.waiting))].Add(1)
	if a.inflight < a.maxInflight && t.waiting == 0 {
		a.inflight++
		a.mu.Unlock()
		t.admitted.Add(1)
		return admitOK
	}
	if t.waiting >= a.queueCap {
		a.mu.Unlock()
		t.shed.Add(1)
		return admitShed
	}
	t.waiting++
	a.mu.Unlock()
	return admitWait
}

// wait redeems an admitWait reservation: the calling goroutine parks as its
// tenant's queue entry until release() grants it a slot (admitOK), the
// deadline passed while parked (admitExpired; the slot is passed on), or the
// admitter closed (admitShed). Deadlines are checked on wakeup, not by a
// timer — a parked request only learns it expired when a grant reaches it,
// which under the overload that causes parking is continuous; the idle case
// never parks.
func (a *admitter) wait(tenant int, deadline time.Time) int {
	t := &a.tenants[tenant]
	a.mu.Lock()
	for t.grants == 0 && !a.closed {
		t.cond.Wait()
	}
	if t.grants > 0 {
		t.grants--
	}
	t.waiting--
	if a.closed {
		a.mu.Unlock()
		t.shed.Add(1)
		return admitShed
	}
	// The grant transferred the releasing request's inflight slot to us.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// Expired while parked: pass the slot to the next waiter instead
		// of consuming it.
		a.releaseLocked()
		a.mu.Unlock()
		t.expired.Add(1)
		return admitExpired
	}
	a.mu.Unlock()
	t.admitted.Add(1)
	return admitOK
}

// release returns one execution slot, granting it to the next waiter chosen
// by smooth weighted round-robin across tenants with queued requests.
func (a *admitter) release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseLocked() {
	// Smooth WRR over tenants that actually have ungranted waiters: each
	// contender's credit grows by its weight, the richest wins and pays the
	// total back. One pass over the (small, fixed) tenant array.
	var best *tenantQ
	total := 0
	for i := range a.tenants {
		t := &a.tenants[i]
		if t.waiting-t.grants <= 0 {
			continue
		}
		t.credit += t.weight
		total += t.weight
		if best == nil || t.credit > best.credit {
			best = t
		}
	}
	if best == nil {
		a.inflight--
		return
	}
	best.credit -= total
	best.grants++
	best.cond.Signal()
}

// close fails every parked request; subsequent tryAdmit calls shed.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	for i := range a.tenants {
		a.tenants[i].cond.Broadcast()
	}
	a.mu.Unlock()
}

// depthQuantile computes the q-quantile of a power-of-two depth histogram
// (bucket lower bounds).
func depthQuantile(counts *[depthBuckets]int64, q float64) int64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := total - int64(float64(total)*(1-q)) // ceil(q * total) within one sample
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return int64(1) << (i - 1) // lowest depth mapping to bucket i
		}
	}
	return int64(1) << (depthBuckets - 1)
}

// tenantDepth loads tenant i's depth histogram into counts.
func (a *admitter) tenantDepth(i int, counts *[depthBuckets]int64) {
	t := &a.tenants[i]
	for j := range t.depthHist {
		counts[j] = t.depthHist[j].Load()
	}
}

// metricsInto emits the per-tenant ingress breakdown: verdict counters and
// queue-depth quantiles, one series per tenant, labeled by admission class.
// Gather-time only — never on the admit path.
func (a *admitter) metricsInto(emit func(metrics.Sample)) {
	var counts [depthBuckets]int64
	for i := range a.tenants {
		t := &a.tenants[i]
		label := `{tenant="` + strconv.Itoa(i) + `"}`
		emit(metrics.C("netsrv_ingress_admitted_total"+label, t.admitted.Load()))
		emit(metrics.C("netsrv_ingress_shed_total"+label, t.shed.Load()))
		emit(metrics.C("netsrv_ingress_rate_limited_total"+label, t.rateLimited.Load()))
		emit(metrics.C("netsrv_ingress_expired_total"+label, t.expired.Load()))
		a.tenantDepth(i, &counts)
		emit(metrics.G("netsrv_ingress_queue_depth_p50"+label, float64(depthQuantile(&counts, 0.50))))
		emit(metrics.G("netsrv_ingress_queue_depth_p99"+label, float64(depthQuantile(&counts, 0.99))))
	}
}

// tokenBucket is a mutex-guarded token bucket: take() refills
// arithmetically from the monotonic clock and consumes one token. No
// allocation, no background goroutine; an unused bucket (rate 0) is skipped
// by the caller entirely.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; 0 = disabled
	burst  float64
	tokens float64
	last   time.Time
}

func (tb *tokenBucket) init(rate, burst float64) {
	tb.rate = rate
	tb.burst = burst
	tb.tokens = burst
	tb.last = time.Now()
}

func (tb *tokenBucket) take() bool {
	tb.mu.Lock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < 1 {
		tb.mu.Unlock()
		return false
	}
	tb.tokens--
	tb.mu.Unlock()
	return true
}
