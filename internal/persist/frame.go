package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The CRC frame is the one envelope every binary artifact and wire message
// in the repo shares: an 8-byte magic string, a little-endian uint32 format
// version, an explicit uint64 payload length, the payload, and a CRC-32
// (IEEE) of the payload. Checkpoint files use it on disk; the distributed
// training protocol (internal/dtrain) uses it per message over TCP or
// in-process pipes. The frame makes every corruption mode first-class: a
// truncated stream fails the length read, a torn or bit-flipped payload
// fails the checksum, a foreign stream fails the magic, and a message from
// a future format version is refused instead of misread.

// frameHeaderSize is the byte length of a frame header with an 8-byte magic.
const frameHeaderSize = 8 + 4 + 8

// AppendFrame appends a complete frame (header, payload, checksum) to b and
// returns the extended slice. magic must be exactly 8 bytes.
func AppendFrame(b []byte, magic string, version uint32, payload []byte) []byte {
	if len(magic) != 8 {
		panic(fmt.Sprintf("persist: frame magic %q must be exactly 8 bytes", magic))
	}
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return b
}

// WriteFrame writes a complete frame to w. The frame is assembled in memory
// first and written with a single Write call, so writers multiplexed over
// one connection never interleave partial frames.
func WriteFrame(w io.Writer, magic string, version uint32, payload []byte) error {
	frame := AppendFrame(make([]byte, 0, frameHeaderSize+len(payload)+4), magic, version, payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("persist: write %s frame: %w", magic, err)
	}
	return nil
}

// ReadFrame reads one frame from r, verifying the magic, the payload length
// against maxPayload, and the CRC-32 before returning the format version and
// payload. what names the artifact in error messages ("checkpoint",
// "dtrain message"). The returned payload is freshly allocated and owned by
// the caller.
func ReadFrame(r io.Reader, magic string, maxPayload uint64, what string) (version uint32, payload []byte, err error) {
	if len(magic) != 8 {
		panic(fmt.Sprintf("persist: frame magic %q must be exactly 8 bytes", magic))
	}
	header := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fmt.Errorf("persist: %s truncated reading header: %w", what, err)
	}
	if string(header[:8]) != magic {
		return 0, nil, fmt.Errorf("persist: not a %s (bad magic)", what)
	}
	version = binary.LittleEndian.Uint32(header[8:])
	payloadLen := binary.LittleEndian.Uint64(header[12:])
	if payloadLen > maxPayload {
		return 0, nil, fmt.Errorf("persist: %s payload length %d exceeds the %d-byte limit", what, payloadLen, maxPayload)
	}
	payload, err = ReadPayload(r, payloadLen)
	if err != nil {
		return 0, nil, fmt.Errorf("persist: %s truncated reading %d-byte payload: %w", what, payloadLen, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("persist: %s truncated reading checksum: %w", what, err)
	}
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(payload); want != got {
		return 0, nil, fmt.Errorf("persist: %s checksum mismatch (stored %#x, computed %#x): data is corrupt", what, want, got)
	}
	return version, payload, nil
}

// eagerPayload is the largest payload ReadPayload allocates before reading.
const eagerPayload = 64 << 20

// ReadPayload reads exactly n bytes from r. Up to 64 MiB it allocates them
// at once; beyond that the buffer grows with the bytes that arrive, so a
// corrupt length prefix claiming gigabytes fails at the end of the stream
// instead of allocating them first.
func ReadPayload(r io.Reader, n uint64) ([]byte, error) {
	if n <= eagerPayload {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(buf)) != n {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}
