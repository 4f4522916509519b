package netgen

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"hap/internal/haperr"
)

// SenderConfig tunes packet replay.
type SenderConfig struct {
	// Compression divides model time: with Compression = 1000 one model
	// second is replayed in one millisecond. Default 1 (real time).
	Compression float64
	// PayloadPad adds this many zero bytes after the header, up to the
	// largest UDP payload (maxDatagram).
	PayloadPad int
}

// maxDatagram is the largest UDP payload over IPv4: 65,535 bytes less the
// 8-byte UDP and 20-byte IP headers.
const maxDatagram = 65507

// SendStats reports a completed replay.
type SendStats struct {
	Sent      int
	Bytes     int64
	Elapsed   time.Duration
	MaxLateNs int64 // worst pacing lateness observed
}

// Send replays the schedule as UDP datagrams to addr, pacing according to
// the (compressed) model timeline. It stops early if ctx is cancelled. A
// negative or oversized pad, or a NaN or infinite compression, is
// rejected with ErrBadParameter before anything is sent.
func Send(ctx context.Context, addr string, s *Schedule, cfg SenderConfig) (SendStats, error) {
	if cfg.PayloadPad < 0 || cfg.PayloadPad > maxDatagram-HeaderSize {
		return SendStats{}, haperr.Badf("netgen: payload pad must be in [0, %d] (got %d)", maxDatagram-HeaderSize, cfg.PayloadPad)
	}
	if math.IsNaN(cfg.Compression) || math.IsInf(cfg.Compression, 0) {
		return SendStats{}, haperr.Badf("netgen: compression must be finite (got %v)", cfg.Compression)
	}
	if cfg.Compression <= 0 {
		cfg.Compression = 1
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return SendStats{}, fmt.Errorf("netgen: dial %s: %w", addr, err)
	}
	defer conn.Close()

	var st SendStats
	start := time.Now()
	buf := make([]byte, 0, HeaderSize+cfg.PayloadPad)
	for i, a := range s.Arrivals {
		due := start.Add(time.Duration(a.T / cfg.Compression * float64(time.Second)))
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				st.Elapsed = time.Since(start)
				return st, ctx.Err()
			case <-timer.C:
			}
		} else if late := -due.Sub(now); int64(late) > st.MaxLateNs {
			st.MaxLateNs = int64(late)
		}
		buf = buf[:0]
		buf = Packet{
			Seq:      uint64(i),
			SendUnix: time.Now().UnixNano(),
			Class:    uint32(a.Class),
			PadLen:   uint32(cfg.PayloadPad),
		}.Encode(buf)
		n, err := conn.Write(buf)
		if err != nil {
			return st, fmt.Errorf("netgen: send seq %d: %w", i, err)
		}
		st.Sent++
		st.Bytes += int64(n)
		obsPacketsSent.Inc()
		obsBytesSent.Add(int64(n))
	}
	st.Elapsed = time.Since(start)
	return st, nil
}
