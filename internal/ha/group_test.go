package ha

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/wal"
)

func groupMember(id int, store LedgerStore, lease time.Duration, bootstrap bool) *Member {
	return NewMember(MemberConfig{
		ID:        id,
		Addr:      "node-" + string(rune('a'+id)),
		Store:     store,
		Oracle:    oracle.Config{Engine: oracle.SI},
		Lease:     lease,
		Bootstrap: bootstrap,
		Logf:      func(string, ...any) {},
	})
}

func waitLeader(t *testing.T, members []*Member, exclude *Member, timeout time.Duration) *Member {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range members {
			if m != exclude && m.Role() == RoleLeader {
				return m
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no leader elected within %v", timeout)
	return nil
}

// TestLeaseRenewalKeepsFollowersQuiet: while the leader renews its lease
// through the log, followers observe progress and never campaign.
func TestLeaseRenewalKeepsFollowersQuiet(t *testing.T) {
	store := NewMemStore(3)
	lease := 60 * time.Millisecond
	members := []*Member{
		groupMember(0, store, lease, true),
		groupMember(1, store, lease, false),
		groupMember(2, store, lease, false),
	}
	for _, m := range members {
		if err := m.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		defer m.Stop()
	}
	time.Sleep(6 * lease)
	if members[0].Role() != RoleLeader || members[0].Epoch() != 1 {
		t.Fatalf("bootstrap leader lost leadership: role=%v epoch=%d",
			members[0].Role(), members[0].Epoch())
	}
	for _, m := range members {
		if n := m.Elections(); n != 0 {
			t.Fatalf("member %d started %d elections under a healthy leader", m.cfg.ID, n)
		}
	}
	// Followers learned the leader's identity from lease records.
	for _, m := range members[1:] {
		epoch, addr := m.LeaderHint()
		if epoch != 1 || addr != "node-a" {
			t.Fatalf("member %d leader hint = (%d, %q), want (1, node-a)", m.cfg.ID, epoch, addr)
		}
	}
}

// TestElectionAfterLeaderCrash: killing the leader triggers automatic
// election; every acked commit survives onto the new leader, and the old
// leader's oracle is fenced.
func TestElectionAfterLeaderCrash(t *testing.T) {
	store := NewMemStore(3)
	lease := 60 * time.Millisecond
	members := []*Member{
		groupMember(0, store, lease, true),
		groupMember(1, store, lease, false),
		groupMember(2, store, lease, false),
	}
	for _, m := range members {
		if err := m.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		defer m.Stop()
	}
	leader := waitLeader(t, members, nil, time.Second)
	acked := commitN(t, leader.Oracle(), 200, 0)
	oldSO := leader.Oracle()

	leader.Stop() // crash: renewals cease, nothing is handed over
	successor := waitLeader(t, members, leader, 4*time.Second)
	if successor.Epoch() != 2 {
		t.Fatalf("successor epoch = %d, want 2", successor.Epoch())
	}

	// Every acked commit is visible with its original timestamp.
	tss := make([]uint64, 0, len(acked))
	for ts := range acked {
		tss = append(tss, ts)
	}
	sts := successor.Oracle().QueryBatch(tss)
	for i, ts := range tss {
		if sts[i].Status != oracle.StatusCommitted || sts[i].CommitTS != acked[ts] {
			t.Fatalf("acked commit %d lost: %+v (want committed at %d)", ts, sts[i], acked[ts])
		}
	}

	// The old leader cannot ack anything after the fence.
	for i := 0; i < 3; i++ {
		_, err := oldSO.Commit(oracle.CommitRequest{
			StartTS:  1 << 40,
			WriteSet: []oracle.RowID{oracle.RowID(1 << 40)},
		})
		if !errors.Is(err, wal.ErrFenced) {
			t.Fatalf("old leader late commit %d: err = %v, want ErrFenced", i, err)
		}
	}
}

// TestElectionDuelSingleWinner: two candidates campaigning for the same
// epoch — the quorum seal lets exactly one promote.
func TestElectionDuelSingleWinner(t *testing.T) {
	store := NewMemStore(3)
	if _, err := store.Create(1); err != nil {
		t.Fatal(err)
	}
	a := groupMember(1, store, 50*time.Millisecond, false)
	b := groupMember(2, store, 50*time.Millisecond, false)
	if err := a.follow(1); err != nil {
		t.Fatal(err)
	}
	if err := b.follow(1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, m := range []*Member{a, b} {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			m.campaign(1)
		}(m)
	}
	wg.Wait()
	leaders := 0
	for _, m := range []*Member{a, b} {
		if m.Role() == RoleLeader {
			leaders++
			if m.Epoch() != 2 {
				t.Fatalf("winner epoch = %d, want 2", m.Epoch())
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders after duel = %d, want exactly 1", leaders)
	}
	if max, _ := store.MaxEpoch(); max != 2 {
		t.Fatalf("store max epoch = %d, want 2", max)
	}
}

// TestElectionWinnerDiesBeforeCheckpoint: a candidate can win the seals and
// create its epoch's ledgers, then die or be fenced before the checkpoint
// that opens the new log reaches them. A follower that campaigns from that
// empty epoch, and a member that joins it fresh, must still hold every
// commit acked before it.
func TestElectionWinnerDiesBeforeCheckpoint(t *testing.T) {
	store := NewMemStore(3)
	leader := groupMember(0, store, time.Second, true)
	if err := leader.lead(1); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	follower := groupMember(1, store, time.Second, false)
	if err := follower.follow(1); err != nil {
		t.Fatalf("follow epoch 1: %v", err)
	}
	acked := commitN(t, leader.Oracle(), 100, 0)

	// The winner of epoch 2 fences epoch 1 and creates epoch 2's ledgers,
	// then dies with nothing written to them.
	fence, err := store.Fence(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fence {
		if err := wal.SealEpoch(l, 2); err != nil {
			t.Fatalf("seal epoch 1 at 2: %v", err)
		}
	}
	if _, err := store.Create(2); err != nil {
		t.Fatal(err)
	}

	joiner := groupMember(2, store, time.Second, false)
	for _, m := range []*Member{follower, joiner} {
		if err := m.follow(2); err != nil {
			t.Fatalf("member %d follow epoch 2: %v", m.cfg.ID, err)
		}
	}
	follower.campaign(2)
	if follower.Role() != RoleLeader || follower.Epoch() != 3 {
		t.Fatalf("follower role=%v epoch=%d, want leader of epoch 3", follower.Role(), follower.Epoch())
	}

	tss := make([]uint64, 0, len(acked))
	for ts := range acked {
		tss = append(tss, ts)
	}
	joined, ok := joiner.QueryBatchInto(tss, nil)
	if !ok {
		t.Fatalf("joiner has no shadow")
	}
	for name, sts := range map[string][]oracle.TxnStatus{
		"epoch-3 leader": follower.Oracle().QueryBatch(tss),
		"joiner":         joined,
	} {
		for i, ts := range tss {
			if sts[i].Status != oracle.StatusCommitted || sts[i].CommitTS != acked[ts] {
				t.Fatalf("%s lost acked commit %d: %+v (want committed at %d)", name, ts, sts[i], acked[ts])
			}
		}
	}
}

// sealOnCreate hands out the next epoch's ledgers already sealed above it,
// as if a rival had fenced the new epoch before its checkpoint landed.
type sealOnCreate struct {
	*MemStore
	armed bool
}

func (s *sealOnCreate) Create(epoch uint64) ([]wal.Ledger, error) {
	ledgers, err := s.MemStore.Create(epoch)
	if err == nil && s.armed {
		s.armed = false
		for _, l := range ledgers {
			if err := wal.SealEpoch(l, epoch+1); err != nil {
				return nil, err
			}
		}
	}
	return ledgers, err
}

// TestElectionRetryAfterFencedPromotion: a candidate whose promotion is
// fenced after it drained the old log must not reuse that half-promoted
// shadow; its next campaign wins with every acked commit.
func TestElectionRetryAfterFencedPromotion(t *testing.T) {
	store := &sealOnCreate{MemStore: NewMemStore(3)}
	leader := groupMember(0, store, time.Second, true)
	if err := leader.lead(1); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	candidate := groupMember(1, store, time.Second, false)
	if err := candidate.follow(1); err != nil {
		t.Fatalf("follow epoch 1: %v", err)
	}
	acked := commitN(t, leader.Oracle(), 50, 0)

	store.armed = true
	candidate.campaign(1)
	if candidate.Role() == RoleLeader {
		t.Fatalf("candidate led a fenced epoch")
	}
	candidate.campaign(1)
	if candidate.Role() != RoleLeader || candidate.Epoch() != 3 {
		t.Fatalf("retry: role=%v epoch=%d, want leader of epoch 3", candidate.Role(), candidate.Epoch())
	}
	for ts, commit := range acked {
		if st := candidate.Oracle().Query(ts); st.Status != oracle.StatusCommitted || st.CommitTS != commit {
			t.Fatalf("acked commit %d lost: %+v (want committed at %d)", ts, st, commit)
		}
	}
}

// flakyRead fails every Read of one epoch while armed, the way a DirStore
// read can fail (EMFILE, EACCES) for a log that exists.
type flakyRead struct {
	*MemStore
	epoch uint64
	armed bool
}

func (s *flakyRead) Read(epoch uint64) (wal.Ledger, error) {
	if s.armed && epoch == s.epoch {
		return nil, errors.New("too many open files")
	}
	return s.MemStore.Read(epoch)
}

// TestElectionFollowRetriesUnreadableEpoch: only an epoch that was never
// created may be skipped. With epoch 2 holding acked commits and epoch 3
// empty (its winner died before its checkpoint), neither a follower of
// epoch 1 nor a fresh joiner may follow epoch 3 while epoch 2 cannot be
// read; once it can, both hold every acked commit, and so does the
// follower's next epoch.
func TestElectionFollowRetriesUnreadableEpoch(t *testing.T) {
	store := &flakyRead{MemStore: NewMemStore(3), epoch: 2}
	first := groupMember(0, store, time.Second, true)
	if err := first.lead(1); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	second := groupMember(1, store, time.Second, false)
	follower := groupMember(2, store, time.Second, false)
	for _, m := range []*Member{second, follower} {
		if err := m.follow(1); err != nil {
			t.Fatalf("member %d follow epoch 1: %v", m.cfg.ID, err)
		}
	}
	acked := commitN(t, first.Oracle(), 50, 0)
	second.campaign(1)
	if second.Role() != RoleLeader || second.Epoch() != 2 {
		t.Fatalf("second role=%v epoch=%d, want leader of epoch 2", second.Role(), second.Epoch())
	}
	for ts, commit := range commitN(t, second.Oracle(), 50, 1000) {
		acked[ts] = commit
	}

	// The winner of epoch 3 fences epoch 2 and dies before its checkpoint.
	fence, err := store.Fence(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fence {
		if err := wal.SealEpoch(l, 3); err != nil {
			t.Fatalf("seal epoch 2 at 3: %v", err)
		}
	}
	if _, err := store.Create(3); err != nil {
		t.Fatal(err)
	}

	joiner := groupMember(3, store, time.Second, false)
	members := []*Member{follower, joiner}
	store.armed = true
	for _, m := range members {
		if err := m.follow(3); err == nil {
			t.Fatalf("member %d followed epoch 3 past an unreadable epoch 2", m.cfg.ID)
		}
	}
	store.armed = false
	for _, m := range members {
		if err := m.follow(3); err != nil {
			t.Fatalf("member %d follow epoch 3: %v", m.cfg.ID, err)
		}
	}

	tss := make([]uint64, 0, len(acked))
	for ts := range acked {
		tss = append(tss, ts)
	}
	joined, ok := joiner.QueryBatchInto(tss, nil)
	if !ok {
		t.Fatalf("joiner has no shadow")
	}
	follower.campaign(3)
	if follower.Role() != RoleLeader || follower.Epoch() != 4 {
		t.Fatalf("follower role=%v epoch=%d, want leader of epoch 4", follower.Role(), follower.Epoch())
	}
	for name, sts := range map[string][]oracle.TxnStatus{
		"epoch-4 leader": follower.Oracle().QueryBatch(tss),
		"joiner":         joined,
	} {
		for i, ts := range tss {
			if sts[i].Status != oracle.StatusCommitted || sts[i].CommitTS != acked[ts] {
				t.Fatalf("%s lost acked commit %d: %+v (want committed at %d)", name, ts, sts[i], acked[ts])
			}
		}
	}
}

// TestElectionChaosCommitStorm is the fencing-invariant chaos audit: kill
// the leader in the middle of a commit storm, let the group elect, keep
// the storm going against the survivor, and then audit —
//
//   - every commit acked by anyone is visible on the final leader with
//     its original commit timestamp (0 lost, 0 invisible);
//   - every late append by the revived old leader fails ErrFenced;
//   - standby reads keep answering before, during and after the failover;
//   - a restarted old leader rejoins as a follower of the new epoch.
func TestElectionChaosCommitStorm(t *testing.T) {
	store := NewMemStore(3)
	lease := 80 * time.Millisecond
	members := []*Member{
		groupMember(0, store, lease, true),
		groupMember(1, store, lease, false),
		groupMember(2, store, lease, false),
	}
	for _, m := range members {
		if err := m.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		defer m.Stop()
	}
	first := waitLeader(t, members, nil, time.Second)
	oldSO := first.Oracle()

	var liveMu sync.Mutex
	live := append([]*Member(nil), members...)
	findLeader := func() *oracle.StatusOracle {
		liveMu.Lock()
		defer liveMu.Unlock()
		for _, m := range live {
			if m.Role() == RoleLeader {
				return m.Oracle()
			}
		}
		return nil
	}
	findFollower := func() *Member {
		liveMu.Lock()
		defer liveMu.Unlock()
		for _, m := range live {
			if m.Role() == RoleFollower {
				return m
			}
		}
		return nil
	}

	type ack struct{ start, commit uint64 }
	var ackMu sync.Mutex
	var acks []ack
	stop := make(chan struct{})
	killed := make(chan struct{})
	var wg sync.WaitGroup

	const workers = 4
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(wkr)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				so := findLeader()
				if so == nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				ts, err := so.Begin()
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				row := oracle.RowID(uint64(wkr)<<32 | uint64(i))
				res, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{row}})
				if err == nil && res.Committed {
					ackMu.Lock()
					acks = append(acks, ack{ts, res.CommitTS})
					ackMu.Unlock()
				}
				if r.Intn(64) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(wkr)
	}

	// Standby-read availability probe: queries against a follower shadow
	// must keep answering throughout the failover.
	var answeredBefore, answeredAfter int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var scratch []oracle.TxnStatus
		probeTS := []uint64{1}
		after := false
		for {
			select {
			case <-stop:
				return
			case <-killed:
				after = true
			default:
			}
			m := findFollower()
			if m == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			ackMu.Lock()
			if len(acks) > 0 {
				probeTS[0] = acks[len(acks)-1].start
			}
			ackMu.Unlock()
			res, ok := m.QueryBatchInto(probeTS, scratch)
			if ok {
				scratch = res
				if after {
					answeredAfter++
				} else {
					answeredBefore++
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(6 * lease) // storm against the healthy leader

	first.Stop() // crash mid-storm
	liveMu.Lock()
	live = live[1:]
	liveMu.Unlock()
	close(killed)
	killedAt := time.Now()

	waitLeader(t, members, first, 5*time.Second)
	electionGap := time.Since(killedAt)
	time.Sleep(4 * lease) // storm continues against the survivor
	close(stop)
	wg.Wait()

	t.Logf("election gap %v (lease %v); %d acks; reads before=%d after=%d",
		electionGap, lease, len(acks), answeredBefore, answeredAfter)

	if answeredBefore == 0 || answeredAfter == 0 {
		t.Fatalf("standby reads gap: before=%d after=%d", answeredBefore, answeredAfter)
	}

	// Audit: zero acked commits lost or invisible on the final leader. A
	// starved leader may lose its lease mid-storm, so the final leader is
	// whoever leads now, not necessarily the first successor.
	var final *Member
	var finalSO *oracle.StatusOracle
	for finalSO == nil {
		final = waitLeader(t, members, first, 5*time.Second)
		finalSO = final.Oracle()
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	tss := make([]uint64, len(acks))
	for i, a := range acks {
		tss[i] = a.start
	}
	sts := finalSO.QueryBatch(tss)
	lost := 0
	for i, a := range acks {
		if sts[i].Status != oracle.StatusCommitted || sts[i].CommitTS != a.commit {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d acked commits lost or invisible after failover", lost, len(acks))
	}

	// Revive the old leader: every late append must fail the fence.
	for i := 0; i < 5; i++ {
		_, err := oldSO.Commit(oracle.CommitRequest{
			StartTS:  1<<40 + uint64(i),
			WriteSet: []oracle.RowID{oracle.RowID(1<<40 + uint64(i))},
		})
		if !errors.Is(err, wal.ErrFenced) {
			t.Fatalf("revived leader late append %d: err = %v, want ErrFenced", i, err)
		}
	}

	// A restarted old leader rejoins as a follower of the new epoch.
	rejoin := groupMember(0, store, lease, false)
	if err := rejoin.Start(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer rejoin.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rejoin.Role() == RoleFollower && rejoin.Epoch() >= final.Epoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined member role=%v epoch=%d, want follower of epoch %d",
				rejoin.Role(), rejoin.Epoch(), final.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
}
