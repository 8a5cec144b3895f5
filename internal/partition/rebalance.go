package partition

import (
	"sync"
	"time"

	"repro/internal/oracle"
)

// RebalanceConfig parameterizes the load-driven rebalancer.
type RebalanceConfig struct {
	// Interval is how often load is sampled and moves are considered
	// (default 50ms).
	Interval time.Duration
	// MaxMoves caps the range migrations per tick (default 2): each move
	// quiesces the commit pipeline briefly, so the controller converges in
	// small steps rather than one long stall.
	MaxMoves int
	// MinImbalance is the minimum hot/cold load ratio that triggers a move
	// (default 1.5): below it the spread is considered noise.
	MinImbalance float64
	// MinLoad is the minimum per-tick operation count on the hottest
	// partition before any move is considered (default 1024): an idle or
	// warming-up cluster is never rebalanced.
	MinLoad int64
	// LoadSpan must match the partitions' oracle.Config.LoadSpan so bucket
	// indexes translate back to key ranges.
	LoadSpan uint64
	// OnMove, when non-nil, observes every completed move (for tests).
	OnMove func(lo, hi uint64, from, to int)
}

// Rebalancer is the elastic-repartitioning controller: it differences each
// partition's per-slice load histogram tick over tick, detects a sustained
// imbalance, and carves bucket-aligned key ranges off the hottest partition
// onto the coldest via Coordinator.MoveRange — the paper's §7 partitioned
// oracle made adaptive. All safety lives in MoveRange (epoch fencing,
// migration ordering); the rebalancer is pure policy and can be arbitrarily
// dumb without risking a lost commit.
type Rebalancer struct {
	co  *Coordinator
	cfg RebalanceConfig

	mu   sync.Mutex
	prev [][]int64 // last tick's cumulative per-slice counters, per partition

	stop chan struct{}
	done chan struct{}

	moves      int64
	lastReason string
}

// NewRebalancer builds (but does not start) a rebalancer over the
// coordinator's partitions.
func NewRebalancer(co *Coordinator, cfg RebalanceConfig) *Rebalancer {
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = 2
	}
	if cfg.MinImbalance <= 1 {
		cfg.MinImbalance = 1.5
	}
	if cfg.MinLoad <= 0 {
		cfg.MinLoad = 1024
	}
	return &Rebalancer{co: co, cfg: cfg}
}

// Start launches the control loop; Stop ends it.
func (rb *Rebalancer) Start() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.stop != nil {
		return
	}
	rb.stop = make(chan struct{})
	rb.done = make(chan struct{})
	go rb.loop(rb.stop, rb.done)
}

// Stop ends the control loop and waits for it to exit. In-flight moves
// complete; none are started after Stop returns.
func (rb *Rebalancer) Stop() {
	rb.mu.Lock()
	stop, done := rb.stop, rb.done
	rb.stop, rb.done = nil, nil
	rb.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Moves reports how many range migrations the rebalancer has driven.
func (rb *Rebalancer) Moves() int64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.moves
}

func (rb *Rebalancer) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(rb.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rb.Tick()
		}
	}
}

// Tick samples load and performs at most MaxMoves migrations. Exported so
// tests (and deterministic harnesses) can drive the controller without the
// timer.
func (rb *Rebalancer) Tick() {
	st := rb.co.Stats()
	deltas := rb.diff(st.Partitions)
	if deltas == nil {
		return // first sample only establishes the baseline
	}
	moved := false
	for m := 0; m < rb.cfg.MaxMoves; m++ {
		if !rb.step(deltas) {
			break
		}
		moved = true
	}
	if moved {
		// Re-baseline: the next window's deltas must reflect the new
		// assignment only. Differencing across a move would attribute the
		// donor's pre-move traffic to ranges it no longer owns and steer
		// the following tick with stale heat.
		rb.mu.Lock()
		rb.prev = nil
		rb.mu.Unlock()
	}
}

// diff turns this tick's cumulative per-slice counters into per-tick deltas
// and advances the baseline. Returns nil until two samples exist or when
// histogram shapes mismatch (a partition restarted or answered empty).
func (rb *Rebalancer) diff(parts []oracle.Stats) [][]int64 {
	cur := make([][]int64, len(parts))
	for p := range parts {
		cur[p] = parts[p].SliceLoads
	}
	rb.mu.Lock()
	prev := rb.prev
	rb.prev = cur
	rb.mu.Unlock()
	if prev == nil || len(prev) != len(cur) {
		return nil
	}
	deltas := make([][]int64, len(cur))
	for p := range cur {
		if cur[p] == nil || len(prev[p]) != len(cur[p]) {
			return nil
		}
		d := make([]int64, len(cur[p]))
		for b := range d {
			if dd := cur[p][b] - prev[p][b]; dd > 0 {
				d[b] = dd
			}
		}
		deltas[p] = d
	}
	return deltas
}

// step performs one greedy move: find the hottest and coldest partitions by
// per-tick load, and hand the hottest partition's hottest buckets (up to
// half the load gap) to the coldest. Returns whether a move happened;
// deltas is updated in place so a second step this tick sees the new
// assignment.
func (rb *Rebalancer) step(deltas [][]int64) bool {
	totals := make([]int64, len(deltas))
	for p := range deltas {
		for _, v := range deltas[p] {
			totals[p] += v
		}
	}
	hot, cold := 0, 0
	for p := range totals {
		if totals[p] > totals[hot] {
			hot = p
		}
		if totals[p] < totals[cold] {
			cold = p
		}
	}
	if hot == cold || totals[hot] < rb.cfg.MinLoad {
		return false
	}
	if float64(totals[hot]) < rb.cfg.MinImbalance*float64(totals[cold]+1) {
		return false
	}

	// Greedy: move the hot partition's hottest buckets until half the gap
	// is transferred. Contiguous buckets coalesce into one MoveRange each.
	target := (totals[hot] - totals[cold]) / 2
	type hb struct {
		b    int
		load int64
	}
	var hbs []hb
	for b, v := range deltas[hot] {
		if v > 0 {
			hbs = append(hbs, hb{b, v})
		}
	}
	// Selection by load, descending (LoadBuckets is small).
	for i := 1; i < len(hbs); i++ {
		for j := i; j > 0 && hbs[j].load > hbs[j-1].load; j-- {
			hbs[j], hbs[j-1] = hbs[j-1], hbs[j]
		}
	}
	var picked []int
	var movedLoad int64
	for _, h := range hbs {
		if movedLoad >= target {
			break
		}
		// target is exactly the no-inversion bound: transferring more than
		// half the gap leaves the donor colder than the receiver, and a
		// dominant bucket would just ping-pong between the two partitions on
		// alternating ticks. Skip any bucket that would overshoot — smaller
		// buckets follow in the sort and may still fit. A bucket so hot it
		// exceeds the whole target never moves, which is right: no
		// assignment of that bucket reduces the imbalance it causes.
		if movedLoad+h.load > target {
			continue
		}
		picked = append(picked, h.b)
		movedLoad += h.load
	}
	if len(picked) == 0 {
		return false
	}
	moved := false
	for _, span := range coalesceBuckets(picked) {
		lo, _ := oracle.LoadBucketRange(rb.cfg.LoadSpan, span[0])
		_, hi := oracle.LoadBucketRange(rb.cfg.LoadSpan, span[1])
		if err := rb.co.MoveRange(lo, hi, cold); err != nil {
			// ErrRangePrepared (in-flight two-phase rows in range) and
			// transient backend failures resolve themselves; retry on a
			// later tick rather than tracking state here.
			continue
		}
		moved = true
		for b := span[0]; b <= span[1]; b++ {
			deltas[cold][b] += deltas[hot][b]
			deltas[hot][b] = 0
		}
		if rb.cfg.OnMove != nil {
			rb.cfg.OnMove(lo, hi, hot, cold)
		}
	}
	if moved {
		rb.mu.Lock()
		rb.moves++
		rb.mu.Unlock()
	}
	return moved
}

// coalesceBuckets turns a set of bucket indexes into inclusive contiguous
// spans, so adjacent hot buckets migrate in one MoveRange.
func coalesceBuckets(picked []int) [][2]int {
	for i := 1; i < len(picked); i++ {
		for j := i; j > 0 && picked[j] < picked[j-1]; j-- {
			picked[j], picked[j-1] = picked[j-1], picked[j]
		}
	}
	var spans [][2]int
	for _, b := range picked {
		if n := len(spans); n > 0 && spans[n-1][1] == b-1 {
			spans[n-1][1] = b
			continue
		}
		spans = append(spans, [2]int{b, b})
	}
	return spans
}
