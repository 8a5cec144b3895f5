package netsrv

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// connWriter is the one write path of a connection, on both ends: the
// server's handlers send responses through it, the client's callers send
// requests. A frame is framed into a pending buffer under the lock, and
// whichever goroutine finds no flusher active becomes the flusher, draining
// the pending buffer with one Write syscall per pass. The two buffers
// ping-pong, so the steady state allocates nothing.
//
// Before it writes a small batch the flusher yields the processor once, so
// every sender that is already runnable appends its frame first and the
// syscall is paid per batch, not per frame. A loopback write finishes before
// a second sender arrives on its own, so without the yield nothing merges;
// the yield needs no timer and no tunable because it waits for nobody — with
// no other goroutine runnable it returns at once, and an idle connection
// writes as early as before.
//
// The pending buffer is bounded: a sender whose frame would grow it past
// maxPending parks on the drained condition instead of appending, so a slow
// reader exerts backpressure on its own senders rather than growing the
// buffer without limit. A reader that stalls the flusher's Write syscall
// longer than stallTimeout fails the write deadline and is disconnected —
// backpressure first, then disconnect, never OOM. Closing the connection is
// also how a write failure reaches the frames already queued behind it: the
// peer's reader (the client's readLoop, the server's serveConn) sees the
// close and fails whatever was waiting on them. Nothing is ever resent.
type connWriter struct {
	mu         sync.Mutex
	drained    sync.Cond // signaled when pending is swapped out or on error
	conn       net.Conn
	pending    []byte
	spare      []byte
	frames     int // frames in pending
	flushing   bool
	err        error
	maxPending int           // 0 = unbounded
	stall      time.Duration // write deadline per flush pass; 0 = none
	stats      *wireStats    // nil on the client, which exports no counters
}

// wireStats counts the frames and the syscalls of a server's connections,
// in both directions. Frames per syscall is the batching the buffered reader
// and the yielding writer achieve; the counters are bumped once per syscall,
// never per frame.
type wireStats struct {
	framesRead, readSyscalls     atomic.Int64
	framesWritten, writeSyscalls atomic.Int64
}

// defaultMaxPendingBytes bounds the per-connection pending write buffer
// unless the server overrides it; defaultWriteStall bounds how long a flush
// pass may sit in Write before the connection is declared dead.
const (
	defaultMaxPendingBytes = 4 << 20
	defaultWriteStall      = 5 * time.Second
)

// maxRetainedWriteBuf caps the buffer capacity the writer keeps across
// flushes; a one-off giant response does not pin its memory forever.
const maxRetainedWriteBuf = 1 << 20

// yieldBelow is the batch size under which the flusher yields before it
// writes: a batch this small is a handful of frames, so whoever else is
// runnable most likely has one more to add; a larger one already amortises
// its syscall.
const yieldBelow = 1 << 10

// connReadBuf sizes the buffered reader both ends read frames through: one
// read syscall drains every frame the kernel already holds.
const connReadBuf = 64 << 10

// newConnWriter creates the writer of conn. maxPending and stall of zero pick
// the defaults, negative values switch the bound off.
func newConnWriter(conn net.Conn, maxPending int, stall time.Duration, stats *wireStats) *connWriter {
	if maxPending == 0 {
		maxPending = defaultMaxPendingBytes
	} else if maxPending < 0 {
		maxPending = 0 // explicit opt-out: unbounded
	}
	if stall == 0 {
		stall = defaultWriteStall
	} else if stall < 0 {
		stall = 0
	}
	w := &connWriter{conn: conn, maxPending: maxPending, stall: stall, stats: stats}
	w.drained.L = &w.mu
	return w
}

// send enqueues one frame whose body is head followed by tail (either may be
// empty), copying both, so the caller's buffers are free on return. The error
// reports this connection's first write failure; a frame handed to an active
// flusher reports nil and fails through the closed connection instead.
func (w *connWriter) send(head, tail []byte) error {
	n := len(head) + len(tail)
	w.mu.Lock()
	// Backpressure: while another goroutine is flushing and the pending
	// buffer is at its cap, wait for the flusher to swap it out. A frame
	// larger than the whole cap is exempt (it must pass eventually).
	for w.err == nil && w.flushing && w.maxPending > 0 &&
		len(w.pending)+4+n > w.maxPending && 4+n <= w.maxPending {
		w.drained.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.pending = binary.BigEndian.AppendUint32(w.pending, uint32(n))
	w.pending = append(w.pending, head...)
	w.pending = append(w.pending, tail...)
	w.frames++
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for w.err == nil && len(w.pending) > 0 {
		if len(w.pending) < yieldBelow {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
		}
		buf, frames := w.pending, w.frames
		w.pending, w.frames = w.spare[:0], 0
		w.spare = nil
		w.drained.Broadcast()
		w.mu.Unlock()
		if w.stall > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.stall))
		}
		if w.stats != nil {
			// Counted before the write, so a peer that has the frames
			// already finds them counted.
			w.stats.writeSyscalls.Add(1)
			w.stats.framesWritten.Add(int64(frames))
		}
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		if cap(buf) <= maxRetainedWriteBuf {
			w.spare = buf[:0]
		}
		if err != nil {
			// The reader stalled past the write deadline (or the
			// connection broke): disconnect it so its senders and
			// buffers are released instead of leaking.
			w.err = err
			w.conn.Close()
		}
	}
	w.flushing = false
	w.drained.Broadcast()
	err := w.err
	w.mu.Unlock()
	return err
}

// countingReader counts the Read calls that reach the connection: under a
// buffered reader, one per read syscall.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	c.n.Add(1)
	return c.r.Read(p)
}
