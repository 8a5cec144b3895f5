package netsrv

import (
	"fmt"
	"sync"

	"repro/internal/oracle"
	"repro/internal/partition"
)

// PartitionedClient fronts N partition servers with the single-oracle
// client surface: it embeds a partition.Coordinator whose backends are the
// per-partition network clients, so the transaction layer runs unchanged
// against a scale-out status oracle. Every write transaction runs the
// two-phase prepare/decide protocol on the partitions its rows live on, and
// status queries fan out to every partition and merge.
//
// Partition 0's server doubles as the timestamp authority: Begin and the
// coordinator's commit-timestamp blocks are drawn there, which keeps the
// whole deployment on one monotonic timestamp stream. A commit block is
// drawn after its round's votes, and the round's verdicts are published to
// the coordinator's decision log under the same mutex that orders Begin.
// That mutex is coordinator-local, so run exactly one PartitionedClient per
// deployment: independent coordinators over the same partitions would not
// be ordered against each other.
type PartitionedClient struct {
	*partition.Coordinator
	clients []*Client
}

// remoteClock adapts the timestamp partition's client to partition.Clock.
// Its mutex is the critical section the in-process timestamp oracle gives
// the coordinator: it is held across the BeginBlock round trip and the
// publish, and Begin takes it too, so no start timestamp above a commit
// timestamp is handed out before that commit's verdict is published.
type remoteClock struct {
	mu sync.Mutex
	c  *Client
}

func (rc *remoteClock) Next() (uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.c.Begin()
}

func (rc *remoteClock) NextBlockWith(n int, publish func(lo, hi uint64)) (uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	lo, err := rc.c.BeginBlock(n)
	if err != nil {
		return 0, err
	}
	publish(lo, lo+uint64(n)-1)
	return lo, nil
}

// DialPartitioned connects to every partition server (addrs indexed as the
// router numbers partitions) and returns the coordinator-fronted client.
func DialPartitioned(engine oracle.Engine, router partition.Router, addrs ...string) (*PartitionedClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netsrv: DialPartitioned needs at least one address")
	}
	if router == nil {
		router = partition.NewHashRouter(len(addrs))
	}
	if router.Partitions() != len(addrs) {
		return nil, fmt.Errorf("netsrv: router covers %d partitions, have %d addresses",
			router.Partitions(), len(addrs))
	}
	clients := make([]*Client, len(addrs))
	backends := make([]partition.Backend, len(addrs))
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("netsrv: dial partition %d (%s): %w", i, addr, err)
		}
		clients[i] = c
		backends[i] = c
	}
	co, err := partition.NewCoordinator(partition.Config{
		Engine:   engine,
		Router:   router,
		Backends: backends,
		Clock:    &remoteClock{c: clients[0]},
	})
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	pc := &PartitionedClient{Coordinator: co, clients: clients}
	// Best effort: a fleet that has rebalanced since this client's static
	// router spec was written hands out its current table here, instead of
	// the client discovering it through a redirect on its first commit.
	pc.RefreshRouting()
	return pc, nil
}

// RefreshRouting polls every partition server for its routing table and
// adopts the newest one offered (the epoch fence ignores older tables).
// Servers without a table — non-elastic deployments — are skipped. Reports
// whether any table was adopted. Misrouted commits refresh the table
// automatically through the server's redirect; this is for late-joining
// clients and orchestration.
func (pc *PartitionedClient) RefreshRouting() bool {
	adopted := false
	for _, c := range pc.clients {
		epoch, spec, err := c.Routing()
		if err != nil {
			continue
		}
		r, err := partition.ParseRouter(spec, len(pc.clients))
		if err != nil {
			continue
		}
		if pc.ApplyRouting(partition.RoutingTable{Epoch: epoch, Router: r}) {
			adopted = true
		}
	}
	return adopted
}

// Clients exposes the per-partition network clients (orchestration and
// stats tooling).
func (pc *PartitionedClient) Clients() []*Client { return pc.clients }

// Close tears down the coordinator and every partition connection.
func (pc *PartitionedClient) Close() error {
	pc.Coordinator.Close()
	var firstErr error
	for _, c := range pc.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
