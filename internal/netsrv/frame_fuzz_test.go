package netsrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// chunkReader delivers a byte stream in the chunk sizes the fuzzer chose
// (sizes[i]+1 bytes on the i-th Read, cycling), as a network would.
type chunkReader struct {
	data  []byte
	sizes []byte
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n = int(c.sizes[c.reads%len(c.sizes)]) + 1
		c.reads++
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// readFrames decodes frames off r until the first error, reusing one buffer
// the way the connection loops do.
func readFrames(r io.Reader) (frames [][]byte, err error) {
	var buf []byte
	for {
		body, err := readFrameInto(r, buf)
		if err != nil {
			return frames, err
		}
		frames = append(frames, append([]byte(nil), body...))
		buf = body[:0]
	}
}

// FuzzReadFrame feeds the one frame reader an arbitrary byte stream: through
// the buffered reader, in arbitrary chunk sizes, it must yield the frames and
// the error the bare stream yields, never panic, and never hold memory for
// bytes a header merely claims.
func FuzzReadFrame(f *testing.F) {
	// testdata/fuzz/FuzzReadFrame holds the small seeds: whole and cut
	// streams, an empty frame, headers that claim maxFrame and more. The one
	// here is too long to check in: a body that spans two growth chunks.
	f.Add(appendFrame(appendFrame(nil, []byte("first")), make([]byte, 70<<10)), []byte{255, 16})
	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		want, wantErr := readFrames(bytes.NewReader(stream))
		got, gotErr := readFrames(bufio.NewReaderSize(&chunkReader{data: stream, sizes: sizes}, connReadBuf))
		if gotErr != wantErr {
			t.Fatalf("buffered read ended with %v, bare read with %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("buffered read yielded %d frames, bare read %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs between buffered and bare read", i)
			}
		}
		if wantErr != io.EOF && wantErr != io.ErrUnexpectedEOF && wantErr != ErrFrameTooLarge {
			t.Fatalf("unexpected error %v", wantErr)
		}
		// The first body, read into no buffer at all: what was allocated is
		// bounded by what arrived, not by what the header claims.
		if len(stream) < 4 {
			return
		}
		if n := binary.BigEndian.Uint32(stream); n <= maxFrame {
			body, _ := readBody(&chunkReader{data: stream[4:], sizes: sizes}, nil, int(n))
			if present := min(int(n), len(stream)-4); len(body) != present {
				t.Fatalf("read %d body bytes of %d present", len(body), present)
			}
			if cap(body) > 2*len(body)+frameGrowChunk {
				t.Fatalf("%d bytes present, %d claimed, %d allocated", len(body), n, cap(body))
			}
		}
	})
}
