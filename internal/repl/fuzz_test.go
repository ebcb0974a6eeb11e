package repl

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzFrameCounter feeds frameCounter a WAL stream cut into chunks at
// arbitrary bytes, as a leader's reads and writes may cut it. Each byte
// of frames is one frame: zero is an 8-byte keepalive, any other value
// a data frame with that many payload bytes. Each byte of cuts is the
// length of the next chunk (zero is an empty chunk); the rest of the
// stream is the last one. After every chunk, count summed so far must
// equal the number of data frames wholly inside the bytes counted, and
// the stream must leave the counter on a frame boundary.
//
// Seeds live in testdata/fuzz/FuzzFrameCounter: whole frames, headers
// and payloads split across chunks, byte-at-a-time chunks, empty
// chunks and keepalives between data frames.
func FuzzFrameCounter(f *testing.F) {
	f.Fuzz(func(t *testing.T, frames, cuts []byte) {
		var stream []byte
		var ends []int // end offset of each data frame
		for _, n := range frames {
			var header [wireFrameHeader]byte
			if n == 0 {
				stream = append(stream, header[:]...)
				continue
			}
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = n
			}
			binary.LittleEndian.PutUint32(header[:4], uint32(n))
			binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
			stream = append(append(stream, header[:]...), payload...)
			ends = append(ends, len(stream))
		}

		var fc frameCounter
		var counted int64
		check := func(chunk []byte, consumed int) {
			counted += fc.count(chunk)
			var want int64
			for _, end := range ends {
				if end <= consumed {
					want++
				}
			}
			if counted != want {
				t.Fatalf("after %d of %d bytes: counted %d frames, want %d", consumed, len(stream), counted, want)
			}
		}
		off := 0
		for _, n := range cuts {
			n := min(int(n), len(stream)-off)
			check(stream[off:off+n], off+n)
			off += n
		}
		check(stream[off:], len(stream))
		if fc.nhdr != 0 || fc.remain != 0 {
			t.Fatalf("counter left mid-frame (%d header bytes, %d payload bytes to come) at the end of a whole-frame stream", fc.nhdr, fc.remain)
		}
	})
}
