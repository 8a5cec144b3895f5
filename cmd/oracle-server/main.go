// Command oracle-server runs the status oracle as a TCP daemon — the
// centralized commit arbiter of the paper's lock-free scheme. Clients
// (cmd/txn, or the txn library via netsrv.Dial) connect to it to obtain
// timestamps, submit commit requests, and query transaction statuses.
//
// Usage:
//
//	oracle-server -addr :7070 -engine wsi -wal /var/lib/wsi/wal.log \
//	    -checkpoint-interval 10s
//
// With -wal the oracle persists every decision to a file-backed ledger and
// recovers from it on restart; with -checkpoint-interval it periodically
// snapshots the commit table into the same log, so recovery replays only
// the suffix after the latest checkpoint instead of the whole history.
// On SIGTERM/SIGINT the server stops accepting, drains in-flight requests,
// flushes the WAL and writes a final checkpoint, so the next start
// recovers instantly.
//
// The million-session front door is configured with the ingress flags —
// multiplexed clients (netsrv.DialMux) carry many logical sessions per
// connection, and the admission gate bounds what reaches the oracle,
// shedding the excess with cheap overload replies at the frame boundary:
//
//	oracle-server -addr :7070 -coalesce 64 -tenants 2 -max-inflight 256 \
//	    -queue-cap 64 -rate 50000 -max-sessions 1000000 -idle-timeout 2m
//
// For availability, a set of servers runs as a self-healing replicated
// group over a shared ledger directory:
//
//	oracle-server -addr :7070 -group /var/lib/wsi/group -node-id 0 -bootstrap
//	oracle-server -addr :7071 -group /var/lib/wsi/group -node-id 1
//	oracle-server -addr :7072 -group /var/lib/wsi/group -node-id 2
//
// The group elects its own leader: the leader renews an epoch-numbered
// lease through the quorum ledger append path, followers tail the epoch's
// ledger into standby shadows (serving stale-bounded status reads and
// answering data ops with a leader redirect), and when renewals stop the
// best-caught-up follower seals the old epoch — fencing the dead leader's
// writer even if it is still running — and promotes itself. Kill -9 the
// leader and the group heals within ~2 lease durations (-lease-ms); restart
// it and it rejoins as a follower. Failover clients (netsrv.DialFailover)
// list every member and follow the redirects automatically.
//
// The server can also run as one key slice of a partitioned status oracle
// (internal/partition):
//
//	oracle-server -addr :7070 -partitions 4 -partition-id 0 -router hash \
//	    -wal /var/lib/wsi/part0.wal
//
// The router is fixed at start: every server and every coordinator of the
// deployment must be given the same -router. Requests carrying rows the
// router did not assign to this partition are rejected at the wire, and the
// coordinator reports the refusal as partition.ErrMisrouted. Clients front
// the fleet with netsrv.DialPartitioned, whose coordinator runs every write
// transaction through the two-phase prepare/decide protocol on the slices
// its rows live on. Partition 0's server doubles as the timestamp
// authority: it draws each round's commit timestamps after the votes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/tso"
	"repro/internal/wal"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		// One line per refused flag.
		fmt.Fprintf(os.Stderr, "oracle-server: %s\n", strings.ReplaceAll(err.Error(), "\n", "\noracle-server: "))
		os.Exit(2)
	}
	if cfg.role != nil {
		log.Printf("oracle-server: partition %d of %d (%s router)", cfg.role.id, cfg.role.router.Partitions(), cfg.role.spec)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if cfg.group != nil {
		runGroup(cfg, sig)
		return
	}
	runPrimary(cfg, sig)
}

// config is the server's start-up configuration. It runs in one of three
// modes: a single oracle, one partition of a partitioned deployment (role
// non-nil), or a member of a replicated group (group non-nil).
type config struct {
	addr     string
	oracle   oracle.Config
	walPath  string
	fsync    bool
	ckpt     time.Duration
	coalesce int
	ing      ingressFlags
	obs      obsFlags
	role     *partitionRole
	group    *groupFlags
}

// parseFlags turns the command line into a config. A flag the chosen mode
// would ignore is an error, so a server never runs in a mode other than the
// one its flags describe.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("oracle-server", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7070", "listen address")
		engine  = fs.String("engine", "wsi", "conflict detection: wsi (serializable) or si")
		walPath = fs.String("wal", "", "path to a file-backed WAL ledger (empty: no durability)")
		maxRows = fs.Int("max-rows", 0, "bound on retained lastCommit rows (Algorithm 3 NR; 0 = unbounded)")
		fsync   = fs.Bool("fsync", true, "fsync each WAL batch (with -wal or -group)")

		debugAddr   = fs.String("debug-addr", "", "listen address for the debug HTTP plane: /metrics (Prometheus text), /vars (JSON), /debug/pprof (empty: disabled), e.g. 127.0.0.1:6060")
		slowMS      = fs.Float64("slow-ms", 0, "log a structured exemplar for requests slower than this many milliseconds end-to-end (0 = off)")
		traceSample = fs.Int("trace-sample", 100, "log 1 in N slow requests over -slow-ms (1 = every slow request)")
		noTrace     = fs.Bool("no-trace", false, "disable hot-path lifecycle tracing (per-stage histograms stay empty)")
		statsEvery  = fs.Duration("stats-every", 0, "log an oracle/ingress stats summary this often, with per-tenant admission breakdown (0 = off)")
		anomSample  = fs.Float64("anomaly-sample", 0, "fraction of commit decisions fed to the streaming anomaly checker (0 = off, 1 = every decision; history_* metrics)")
		coalesce    = fs.Int("coalesce", 0, "server-side coalescing: max one-request commit frames merged into one oracle batch (0 = off)")

		tenants     = fs.Int("tenants", 0, "admission classes for the ingress gate (envelope tenant ids 0..n-1; enables admission when any ingress flag is set)")
		maxInflight = fs.Int("max-inflight", 0, "data-plane requests executing concurrently before arrivals queue (0 = gate default 256)")
		queueCap    = fs.Int("queue-cap", 0, "admitted-but-waiting requests one tenant may park; beyond it arrivals are shed with overload (0 = gate default 128)")
		rate        = fs.Float64("rate", 0, "per-tenant token-bucket refill in requests/second (0 = unlimited)")
		burst       = fs.Int("burst", 0, "token-bucket depth (with -rate; 0 = max(rate, 1))")
		maxSessions = fs.Int("max-sessions", 0, "server-wide cap on live multiplexed sessions (0 = unlimited)")
		idleTimeout = fs.Duration("idle-timeout", 0, "disconnect a connection sending no frame for this long (0 = never)")
		maxPending  = fs.Int("max-pending", 0, "per-connection response buffer bound in bytes; a slow reader beyond it is disconnected (0 = default 4MiB, -1 = unbounded)")

		ckptInterval = fs.Duration("checkpoint-interval", 0, "write a commit-table checkpoint this often (0 = off; with -wal or -group)")

		groupDir  = fs.String("group", "", "epoch-ledger directory of a self-healing replicated group; runs this server as one member (with -node-id)")
		nodeID    = fs.Int("node-id", 0, "this member's id in the group; also staggers election timeouts (with -group)")
		leaseMS   = fs.Int("lease-ms", 1000, "leader lease duration in milliseconds; failover takes ~2 leases (with -group)")
		bootstrap = fs.Bool("bootstrap", false, "create epoch 1 and lead when the group directory is empty (exactly one member; with -group)")
		advertise = fs.String("advertise", "", "address redirects and lease records name this member by (default: the bound listen address; with -group)")

		partitions  = fs.Int("partitions", 1, "total status-oracle partitions in the deployment (this server is one of them)")
		partitionID = fs.Int("partition-id", 0, "this server's partition index in [0, -partitions) (with -partitions > 1)")
		routerSpec  = fs.String("router", "hash", "row router of the partitioned deployment: hash, range, range:s1,s2,..., or map:... (with -partitions > 1)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var errs []error
	refuse := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	if *groupDir != "" {
		// A member runs the whole key space: it has no partition role, and
		// it logs into the group directory's epoch ledgers.
		if *partitions > 1 {
			refuse("-group with -partitions %d: a group member serves every row, not one partition's", *partitions)
		}
		if set["wal"] {
			refuse("-group with -wal: a group member logs to the group directory's ledgers")
		}
	} else {
		for _, name := range []string{"node-id", "lease-ms", "bootstrap", "advertise"} {
			if set[name] {
				refuse("-%s needs -group", name)
			}
		}
		if *walPath == "" {
			for _, name := range []string{"fsync", "checkpoint-interval"} {
				if set[name] {
					refuse("-%s needs -wal", name)
				}
			}
		}
	}
	if *partitions <= 1 {
		for _, name := range []string{"partition-id", "router"} {
			if set[name] {
				refuse("-%s needs -partitions > 1", name)
			}
		}
	}

	cfg := config{
		addr:     *addr,
		oracle:   oracle.Config{MaxRows: *maxRows},
		walPath:  *walPath,
		fsync:    *fsync,
		ckpt:     *ckptInterval,
		coalesce: *coalesce,
		ing: ingressFlags{
			tenants:     *tenants,
			maxInflight: *maxInflight,
			queueCap:    *queueCap,
			rate:        *rate,
			burst:       *burst,
			maxSessions: *maxSessions,
			idleTimeout: *idleTimeout,
			maxPending:  *maxPending,
		},
		obs: obsFlags{
			debugAddr:     *debugAddr,
			slow:          time.Duration(*slowMS * float64(time.Millisecond)),
			traceSample:   *traceSample,
			noTrace:       *noTrace,
			statsEvery:    *statsEvery,
			anomalySample: *anomSample,
		},
	}
	switch *engine {
	case "wsi":
		cfg.oracle.Engine = oracle.WSI
	case "si":
		cfg.oracle.Engine = oracle.SI
	default:
		refuse("unknown engine %q", *engine)
	}
	// Partitioned deployment: this server owns one key slice of a
	// -partitions-wide status oracle. The router must match the one the
	// PartitionedClient coordinators dial with; requests carrying rows it
	// did not assign here are refused as misrouted.
	if *partitions > 1 && *groupDir == "" {
		if *partitionID < 0 || *partitionID >= *partitions {
			refuse("-partition-id %d outside [0, %d)", *partitionID, *partitions)
		} else if router, err := partition.ParseRouter(*routerSpec, *partitions); err != nil {
			errs = append(errs, err)
		} else {
			cfg.role = &partitionRole{router: router, id: *partitionID, spec: *routerSpec}
		}
	}
	if *groupDir != "" {
		cfg.group = &groupFlags{
			dir:       *groupDir,
			nodeID:    *nodeID,
			lease:     time.Duration(*leaseMS) * time.Millisecond,
			bootstrap: *bootstrap,
			advertise: *advertise,
		}
	}
	return cfg, errors.Join(errs...)
}

// obsFlags carries the observability knobs: the debug HTTP plane address,
// slow-request exemplar logging, the tracing kill switch, and periodic
// stats logging.
type obsFlags struct {
	debugAddr     string
	slow          time.Duration
	traceSample   int
	noTrace       bool
	statsEvery    time.Duration
	anomalySample float64
}

// apply installs the tracing knobs on a server (before Serve).
func (o obsFlags) apply(srv *netsrv.Server) {
	srv.SlowThreshold = o.slow
	srv.TraceSample = o.traceSample
	srv.DisableTracing = o.noTrace
	srv.AnomalySample = o.anomalySample
	if o.slow > 0 {
		log.Printf("oracle-server: logging 1 in %d requests slower than %v", max(o.traceSample, 1), o.slow)
	}
	if o.anomalySample > 0 {
		log.Printf("oracle-server: streaming anomaly checker sampling %.2g of commit decisions", o.anomalySample)
	}
}

// start launches the debug HTTP plane and the periodic stats logger against
// the server's (now materialized) registry. Call after Listen.
func (o obsFlags) start(srv *netsrv.Server) {
	reg := srv.Registry()
	if o.debugAddr != "" {
		// net/http/pprof registers on the default mux at import; /metrics
		// and /vars join it so one listener serves profiles and metrics.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			metrics.WritePrometheus(w, reg.Gather())
		})
		http.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			metrics.WriteJSON(w, reg.Gather())
		})
		go func() {
			log.Printf("oracle-server: debug plane on http://%s/ (/metrics, /vars, /debug/pprof)", o.debugAddr)
			if err := http.ListenAndServe(o.debugAddr, nil); err != nil {
				log.Printf("oracle-server: debug listener: %v", err)
			}
		}()
	}
	if o.statsEvery > 0 {
		go func() {
			var exSeen int
			for range time.Tick(o.statsEvery) {
				logStats(reg)
				// New anomaly exemplars since the last tick (the checker
				// retains a bounded ring; a burst past it rotates through).
				exs := srv.AnomalyExemplars()
				if len(exs) < exSeen {
					exSeen = 0
				}
				for _, ex := range exs[exSeen:] {
					log.Printf("oracle-server: anomaly exemplar %s", ex)
				}
				exSeen = len(exs)
			}
		}()
	}
}

// logStats renders a periodic one-glance summary from the registry: headline
// oracle counters, then the per-tenant ingress breakdown.
func logStats(reg *metrics.Registry) {
	samples := reg.Gather()
	get := func(name string) int64 {
		for _, s := range samples {
			if s.Name == name {
				if s.Kind == metrics.KindGauge {
					return int64(s.Gauge)
				}
				return s.Value
			}
		}
		return 0
	}
	log.Printf("oracle-server: stats commits=%d aborts=%d queries=%d batches=%d sessions=%d",
		get("oracle_commits_total"),
		get("oracle_conflict_aborts_total")+get("oracle_tmax_aborts_total")+get("oracle_explicit_aborts_total"),
		get("oracle_queries_total"), get("oracle_commit_batches_total"), get("netsrv_sessions"))
	if get("history_txns_sampled_total") > 0 {
		log.Printf("oracle-server: anomalies write_skew=%d lost_update=%d dirty_read=%d fuzzy_read=%d snapshot=%d nonmonotone=%d double_decide=%d (sampled=%d window=%d)",
			get("history_write_skew_total"), get("history_lost_update_total"),
			get("history_dirty_read_total"), get("history_fuzzy_read_total"),
			get("history_snapshot_violation_total"), get("history_nonmonotone_commit_total"),
			get("history_double_decide_total"), get("history_txns_sampled_total"),
			get("history_window_txns"))
	}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, `netsrv_ingress_admitted_total{tenant=`) {
			tenant := strings.TrimSuffix(strings.TrimPrefix(s.Name, `netsrv_ingress_admitted_total{tenant="`), `"}`)
			log.Printf("oracle-server: ingress tenant=%s admitted=%d shed=%d rate_limited=%d expired=%d",
				tenant, s.Value,
				get(`netsrv_ingress_shed_total{tenant="`+tenant+`"}`),
				get(`netsrv_ingress_rate_limited_total{tenant="`+tenant+`"}`),
				get(`netsrv_ingress_expired_total{tenant="`+tenant+`"}`))
		}
	}
}

// ingressFlags carries the front-door knobs shared by primary and group member.
type ingressFlags struct {
	tenants, maxInflight, queueCap int
	rate                           float64
	burst, maxSessions             int
	idleTimeout                    time.Duration
	maxPending                     int
}

// apply installs the admission gate and connection hygiene limits on a
// server. The gate is enabled when any admission flag is set; idle-timeout
// and max-pending apply independently.
func (f ingressFlags) apply(srv *netsrv.Server) {
	if f.idleTimeout > 0 {
		srv.IdleTimeout = f.idleTimeout
	}
	if f.maxPending != 0 {
		srv.MaxPendingBytes = f.maxPending
	}
	if f.tenants > 0 || f.maxInflight > 0 || f.queueCap > 0 || f.rate > 0 || f.maxSessions > 0 {
		srv.Ingress = &netsrv.IngressConfig{
			Tenants:     f.tenants,
			MaxInflight: f.maxInflight,
			QueueCap:    f.queueCap,
			Rate:        f.rate,
			Burst:       f.burst,
			MaxSessions: f.maxSessions,
		}
		log.Printf("oracle-server: admission gate on (tenants=%d max-inflight=%d queue-cap=%d rate=%g max-sessions=%d)",
			f.tenants, f.maxInflight, f.queueCap, f.rate, f.maxSessions)
	}
}

// partitionRole carries the server's slice identity in a partitioned
// deployment; apply gives the server its router and partition id before it
// serves, and neither changes while it runs.
type partitionRole struct {
	router partition.Router
	id     int
	spec   string // the -router flag, for the start-up log
}

func (p *partitionRole) apply(srv *netsrv.Server) {
	if p == nil {
		return
	}
	srv.Router, srv.PartitionID = p.router, p.id
}

// configureCoalescing applies the coalescer's batch cap to a server.
func configureCoalescing(srv *netsrv.Server, coalesce int) {
	if coalesce > 0 {
		srv.CoalesceMaxBatch = coalesce
		log.Printf("oracle-server: coalescing up to %d commits per batch", coalesce)
	}
}

func runPrimary(cfg config, sig chan os.Signal) {
	var (
		so     *oracle.StatusOracle
		writer *wal.Writer
		ledger *wal.FileLedger
		err    error
	)
	if cfg.walPath != "" {
		ledger, err = wal.OpenFileLedger(cfg.walPath, cfg.fsync)
		if err != nil {
			log.Fatalf("oracle-server: open wal: %v", err)
		}
		writer, err = wal.NewWriter(wal.Config{}, ledger)
		if err != nil {
			log.Fatalf("oracle-server: wal writer: %v", err)
		}
		so, _, err = oracle.RecoverState(cfg.oracle, ledger, writer, 0)
		if err != nil {
			log.Fatalf("oracle-server: recover state: %v", err)
		}
		st := so.Stats()
		log.Printf("oracle-server: recovered from %s: %d records replayed after checkpoint (bound %d) in %v",
			cfg.walPath, st.ReplayedRecords, st.LastCheckpointTS, time.Duration(st.RecoveryNanos))
	} else {
		memCfg := cfg.oracle
		memCfg.TSO = tso.New(0, nil)
		so, err = oracle.New(memCfg)
		if err != nil {
			log.Fatalf("oracle-server: %v", err)
		}
	}

	var ckpt *ha.Checkpointer
	if cfg.ckpt > 0 {
		ckpt = ha.StartCheckpointer(so, cfg.ckpt)
		log.Printf("oracle-server: checkpointing every %v", cfg.ckpt)
	}

	srv := netsrv.NewServer(so)
	cfg.role.apply(srv)
	configureCoalescing(srv, cfg.coalesce)
	cfg.ing.apply(srv)
	cfg.obs.apply(srv)
	bound, err := srv.Listen(cfg.addr)
	if err != nil {
		log.Fatalf("oracle-server: listen: %v", err)
	}
	if writer != nil {
		srv.Registry().Register(writer.MetricsSource())
	}
	cfg.obs.start(srv)
	log.Printf("oracle-server: %s engine serving on %s", cfg.oracle.Engine, bound)

	<-sig
	// Graceful shutdown: stop accepting and drain in-flight requests,
	// then make the log instantly recoverable — flush buffered appends
	// and write a final checkpoint so the next start replays nothing.
	log.Printf("oracle-server: shutting down; stats: %+v", so.Stats())
	if err := srv.Close(); err != nil {
		log.Printf("oracle-server: close: %v", err)
	}
	if ckpt != nil {
		ckpt.Stop()
	}
	if writer != nil {
		writer.Flush()
		if err := so.Checkpoint(); err != nil {
			log.Printf("oracle-server: final checkpoint: %v", err)
		} else {
			log.Printf("oracle-server: final checkpoint written")
		}
		writer.Close()
	}
	if ledger != nil {
		ledger.Close()
	}
}

// groupFlags carries the replicated-group knobs from main to runGroup.
type groupFlags struct {
	dir       string
	nodeID    int
	lease     time.Duration
	bootstrap bool
	advertise string
}

// runGroup runs the server as one member of a self-healing replicated
// group. The ha.Member engine owns every role transition: it installs the
// oracle on the server when this member wins an election (OnLead) and
// deposes it back to a redirecting standby when the member steps down or
// observes a higher epoch (OnFollow). Data ops sent here while following
// answer a leader redirect built from replayed lease records; status reads
// are served from the follower's shadow at bounded staleness.
func runGroup(cfg config, sig chan os.Signal) {
	gf := cfg.group
	store := &ha.DirStore{Dir: gf.dir, Sync: cfg.fsync}
	srv := netsrv.NewStandbyServer()
	configureCoalescing(srv, cfg.coalesce)
	cfg.ing.apply(srv)
	cfg.obs.apply(srv)

	// Bind before building the member so lease records can advertise the
	// actual bound address (":0" resolves to a concrete port), but start
	// serving only after the member's hooks are installed.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("oracle-server: listen: %v", err)
	}
	bound := ln.Addr().String()
	adv := gf.advertise
	if adv == "" {
		adv = bound
	}
	m := ha.NewMember(ha.MemberConfig{
		ID:              gf.nodeID,
		Addr:            adv,
		Store:           store,
		Oracle:          cfg.oracle,
		Lease:           gf.lease,
		Bootstrap:       gf.bootstrap,
		CheckpointEvery: cfg.ckpt,
		OnLead: func(so *oracle.StatusOracle, epoch uint64) {
			srv.Install(so)
			log.Printf("oracle-server: node %d leading epoch %d (serving on %s)", gf.nodeID, epoch, bound)
		},
		OnFollow: func(epoch uint64) {
			srv.Depose()
			log.Printf("oracle-server: node %d following epoch %d (standby reads + redirects)", gf.nodeID, epoch)
		},
		Logf: log.Printf,
	})
	srv.LeaderHint = m.LeaderHint
	srv.StandbyReads = m.QueryBatchInto
	srv.Serve(ln)
	srv.Registry().Register(m.MetricsSource())
	if err := m.Start(); err != nil {
		log.Fatalf("oracle-server: group member: %v", err)
	}
	log.Printf("oracle-server: %s engine group member %d on %s (ledgers %s, lease %v, advertised %s)",
		cfg.oracle.Engine, gf.nodeID, bound, gf.dir, gf.lease, adv)
	cfg.obs.start(srv)

	<-sig
	log.Printf("oracle-server: shutting down group member %d (role %v, epoch %d)", gf.nodeID, m.Role(), m.Epoch())
	if err := srv.Close(); err != nil {
		log.Printf("oracle-server: close: %v", err)
	}
	// Stopping the member releases the lease path cleanly: a leader stops
	// renewing and the rest of the group elects after expiry.
	m.Stop()
}
