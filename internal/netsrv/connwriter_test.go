package netsrv

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
)

// TestStalledPeerFailsCallersNotClient is the regression test for the
// write-under-lock bug: against a peer that accepts and never reads, every
// concurrent call must fail once the write stalls past the timeout (before,
// the blocked Write held c.mu forever and every caller hung), nothing may
// stay pending, and a healthy client beside it must keep being served.
func TestStalledPeerFailsCallersNotClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never read
		}
	}()
	stalled, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	defer func() { (<-accepted).Close() }()
	// The default stall timeout is seconds; the mechanism is the same at 200 ms.
	stalled.w = newConnWriter(stalled.conn, 0, 200*time.Millisecond, nil)

	_, healthy := startServer(t, oracle.WSI)

	// 32 MiB of requests: more than loopback's socket buffers and the
	// writer's pending bound together, so the flusher's Write must block.
	const callers = 32
	payload := make([]byte, 1<<20)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := stalled.callResp(opQueryBatch, payload)
			errs <- err
		}()
	}
	limit := time.After(20 * time.Second) // failure bound only; the stall timeout is 200 ms
	for failed := 0; failed < callers; {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call to a peer that never answers succeeded")
			}
			failed++
		case <-limit:
			t.Fatalf("%d of %d calls still hung on the stalled peer", callers-failed, callers)
		default:
			// While the others hang or fail, the healthy client is served.
			if _, err := healthy.Begin(); err != nil {
				t.Fatalf("healthy client affected: %v", err)
			}
		}
	}
	stalled.mu.Lock()
	pending := len(stalled.pending)
	stalled.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d calls left pending after the connection failed", pending)
	}
	if _, err := stalled.Begin(); err == nil {
		t.Fatal("a call on the failed connection succeeded")
	}
}

// wireCounters reads the four conn counters off the server's registry.
func wireCounters(t *testing.T, srv *Server) (framesRead, reads, framesWritten, writes float64) {
	t.Helper()
	found := 0
	for _, s := range srv.Registry().Gather() {
		if s.Kind != metrics.KindCounter {
			continue
		}
		switch s.Name {
		case "netsrv_conn_frames_read_total":
			framesRead = float64(s.Value)
		case "netsrv_conn_read_syscalls_total":
			reads = float64(s.Value)
		case "netsrv_conn_frames_written_total":
			framesWritten = float64(s.Value)
		case "netsrv_conn_write_syscalls_total":
			writes = float64(s.Value)
		default:
			continue
		}
		found++
	}
	if found != 4 {
		t.Fatalf("registry exports %d of the 4 conn counters", found)
	}
	return
}

// TestWireCountersShowBatching proves the batching the buffered reader and
// the yielding writer exist for, from the server's own counters: one serial
// caller finds nothing to batch and pays no extra syscall for looking, and
// 64 concurrent sessions over one connection move several frames per
// syscall in both directions.
func TestWireCountersShowBatching(t *testing.T) {
	srv, serial := startServer(t, oracle.WSI)
	const calls = 200
	for i := 0; i < calls; i++ {
		if _, err := serial.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	fr, rd, fw, wr := wireCounters(t, srv)
	if fr != calls || fw != calls {
		t.Fatalf("serial: %v frames read, %v written, want %d each", fr, fw, calls)
	}
	// One read per frame plus the one now waiting for the next request.
	if rd > calls+1 || wr != calls {
		t.Fatalf("serial: %v reads and %v writes for %d frames: syscalls were added", rd, wr, calls)
	}

	mux, err := DialMux(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	const sessions, rounds = 64, 100
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s := mux.Session(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := s.Begin(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fr2, rd2, fw2, wr2 := wireCounters(t, srv)
	fr2, rd2, fw2, wr2 = fr2-fr, rd2-rd, fw2-fw, wr2-wr
	if fr2 != sessions*rounds || fw2 != sessions*rounds {
		t.Fatalf("concurrent: %v frames read, %v written, want %d each", fr2, fw2, sessions*rounds)
	}
	t.Logf("concurrent: %.1f frames per read syscall, %.1f per write syscall", fr2/rd2, fw2/wr2)
	if fr2/rd2 <= 2 {
		t.Errorf("concurrent: %.2f frames per read syscall, want > 2 (the client's writer is not batching)", fr2/rd2)
	}
	if fw2/wr2 <= 2 {
		t.Errorf("concurrent: %.2f frames per write syscall, want > 2 (the server's writer is not batching)", fw2/wr2)
	}
}
