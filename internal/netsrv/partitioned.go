package netsrv

import (
	"fmt"

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
// Partition 0's server is the timestamp authority and the home of every
// round's commit verdict: Begin draws there, and a round's commits are
// published there (op 15) inside its timestamp critical section once the
// votes are in, and logged to its WAL. The ordering of Begin against
// publication lives at partition 0, not in the client, so several
// PartitionedClients may front the same partitions.
type PartitionedClient struct {
	*partition.Coordinator
	clients []*Client
}

// DialPartitioned connects to every partition server (addrs indexed as the
// router numbers partitions) and returns the coordinator-fronted client.
// router must be the one every server was started with (-router): a
// commit a server refuses as misrouted returns partition.ErrMisrouted.
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
	})
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	return &PartitionedClient{Coordinator: co, clients: clients}, nil
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
