package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/stream"
)

// DefaultQueueDepth bounds a shard's ingest queue: batches past this many
// in flight are refused with a busy ack rather than buffered without
// limit, which is the backpressure signal the frontend surfaces as 503.
const DefaultQueueDepth = 64

// Shard is one worker of the sharded serve tier. It owns a target
// partition of the live feed in a stream.Analyzer (attack keys for its own
// partition, scalar ticks for everything else) and speaks the wire
// protocol over TCP: ingest batches and snapshot requests queue through a
// single applier goroutine, so reads observe every batch acked before
// them (FIFO read-your-writes).
type Shard struct {
	id         int
	queueDepth int

	an      *stream.Analyzer // applier goroutine only, after Serve starts
	applied atomic.Uint64    // total ingest entries applied

	work chan shardJob

	// Applier-local scratch, reused from frame to frame: the decoded ingest
	// entries, and the snapshot response's encoding (writeFrame copies it).
	entries []IngestEntry
	snapBuf []byte

	mu    sync.Mutex
	conns map[net.Conn]bool // guarded by mu
}

type shardJob struct {
	frame Frame
	conn  *shardConn
}

// shardConn serializes writes to one accepted connection: the applier
// goroutine writes acks while the reader goroutine writes busy refusals.
// Each frame is built in wbuf, reused for the session's lifetime.
type shardConn struct {
	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte // guarded by wmu
}

func (c *shardConn) writeFrame(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendFrame(c.wbuf[:0], f)
	_, err := c.conn.Write(c.wbuf)
	return err
}

// NewShard builds a shard worker. queueDepth bounds the ingest queue
// (<= 0 means DefaultQueueDepth).
func NewShard(id, queueDepth int) *Shard {
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	return &Shard{
		id:         id,
		queueDepth: queueDepth,
		an:         stream.New(),
		work:       make(chan shardJob, queueDepth),
		conns:      make(map[net.Conn]bool),
	}
}

// ID returns the shard's identity.
func (s *Shard) ID() int { return s.id }

// Applied returns the total number of ingest entries applied.
func (s *Shard) Applied() uint64 { return s.applied.Load() }

// Serve accepts frontend connections on ln until ctx is cancelled, then
// closes every connection and returns. It runs the applier goroutine for
// the shard's lifetime.
func (s *Shard) Serve(ctx context.Context, ln net.Listener) error {
	defer close(s.work)
	go s.applier()

	go func() {
		<-ctx.Done()
		_ = ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.readLoop(&shardConn{conn: conn})
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// readLoop dispatches frames from one connection. Stateless control
// frames (hello, ping) answer inline; stateful work (ingest, snapshot,
// leave) queues for the applier, and a full queue is refused immediately
// with a busy ack — never buffered past the bound.
func (s *Shard) readLoop(c *shardConn) {
	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			return
		}
		switch f.Type {
		case msgHello:
			w := binenc.Encoder(nil)
			wireHelloAck(&w, &helloAck{ShardID: s.id, Applied: s.applied.Load()})
			if c.writeFrame(&Frame{Type: msgHelloAck, ReqID: f.ReqID, Payload: w.Buf}) != nil {
				return
			}
		case msgPing:
			if c.writeFrame(&Frame{Type: msgPong, ReqID: f.ReqID}) != nil {
				return
			}
		case msgIngest, msgSnap, msgLeave:
			select {
			case s.work <- shardJob{frame: f, conn: c}:
			default:
				if c.writeFrame(&Frame{Type: f.Type.ack(), Flags: flagBusy, ReqID: f.ReqID}) != nil {
					return
				}
			}
		case msgHelloAck, msgIngestAck, msgSnapResp, msgLeaveAck, msgPong:
			// A shard never receives acks: the peer has its roles reversed.
			// Drop the connection so it renegotiates.
			return
		default:
			// Unknown frame kind: protocol error; drop the connection so
			// the peer renegotiates rather than desynchronizing.
			return
		}
	}
}

// applier is the single goroutine that mutates shard state, draining the
// bounded queue in FIFO order.
func (s *Shard) applier() {
	for job := range s.work {
		switch job.frame.Type {
		case msgIngest:
			s.applyIngest(job)
		case msgSnap:
			s.applySnap(job)
		case msgLeave:
			s.applyLeave(job)
		case msgHello, msgHelloAck, msgIngestAck, msgSnapResp, msgLeaveAck, msgPing, msgPong:
			// Never queued: readLoop answers hello/ping inline and rejects
			// acks before this point. Listed so the wireframe gate forces a
			// decision here whenever the protocol grows a kind.
		}
	}
}

// applyIngest decodes a batch into the applier's one entry slice: the
// decode clears it first, so every record entry gets a fresh Attack —
// open collaboration windows keep the ones from earlier frames.
func (s *Shard) applyIngest(job shardJob) {
	r := binenc.Decoder(job.frame.Payload)
	wireIngest(&r, &s.entries)
	err := payloadErr(&r)
	if err == nil {
		err = s.apply(s.entries)
	}
	if err != nil {
		_ = job.conn.writeFrame(&Frame{
			Type: msgIngestAck, Flags: flagError, ReqID: job.frame.ReqID,
			Payload: []byte(err.Error()),
		})
		return
	}
	w := binenc.Encoder(nil)
	wireIngestAck(&w, &ingestAck{Applied: s.applied.Load()})
	_ = job.conn.writeFrame(&Frame{Type: msgIngestAck, ReqID: job.frame.ReqID, Payload: w.Buf})
}

// apply folds an ordered batch into the analyzer: key records for the
// shard's own partition (IngestAt checks each with ValidateKey), ticks
// for the rest.
func (s *Shard) apply(entries []IngestEntry) error {
	for i := range entries {
		e := &entries[i]
		var err error
		if e.Record != nil {
			err = s.an.IngestAt(e.Record, e.Seq)
		} else {
			err = s.an.Tick(e.ID, e.Start, e.End)
		}
		if err != nil {
			return fmt.Errorf("cluster: shard %d entry %d: %w", s.id, i, err)
		}
		s.applied.Add(1)
	}
	return nil
}

// applySnap answers a snapshot request with the day rows from the
// request's cursor on, clamped to the shard's newest row. The analyzer
// caches its snapshot per generation, so a repeated request re-encodes
// only. A negative or malformed cursor is refused with an error ack.
func (s *Shard) applySnap(job shardJob) {
	var req snapReq
	r := binenc.Decoder(job.frame.Payload)
	wireSnapReq(&r, &req)
	err := payloadErr(&r)
	if err == nil && req.Cursor < 0 {
		err = fmt.Errorf("cluster: shard %d: negative daily cursor %d", s.id, req.Cursor)
	}
	if err != nil {
		_ = job.conn.writeFrame(&Frame{
			Type: msgSnapResp, Flags: flagError, ReqID: job.frame.ReqID,
			Payload: []byte(err.Error()),
		})
		return
	}
	snap := ShardSnapshot{ShardID: s.id, Applied: s.applied.Load(), Snap: s.an.Snapshot()}
	days := snap.Snap.Daily.Days
	snap.DaysFrom = max(min(req.Cursor, len(days)-1), 0)
	snap.Snap.Daily = core.DailyStats{Days: days[snap.DaysFrom:]}
	w := binenc.Encoder(s.snapBuf[:0])
	wireSnapshot(&w, &snap)
	s.snapBuf = w.Buf
	_ = job.conn.writeFrame(&Frame{Type: msgSnapResp, ReqID: job.frame.ReqID, Payload: s.snapBuf})
}

// applyLeave resets the shard to empty for a clean rejoin: a shard that
// left the ring missed ticks while away, so its scalar replica and its
// collaboration horizon are unrecoverable — the honest state to rejoin
// with is none, reported as degraded data until the partition refills.
func (s *Shard) applyLeave(job shardJob) {
	s.an = stream.New()
	s.applied.Store(0)
	_ = job.conn.writeFrame(&Frame{Type: msgLeaveAck, ReqID: job.frame.ReqID})
}

// ListenLocal starts the shard on an ephemeral loopback port and returns
// its address. Serve errors surface on errc (closed listener on shutdown
// reports nil).
func ListenLocal(ctx context.Context, s *Shard) (string, <-chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	errc := make(chan error, 1)
	go func() {
		err := s.Serve(ctx, ln)
		if err != nil && !errors.Is(err, net.ErrClosed) {
			errc <- err
		}
		close(errc)
	}()
	return ln.Addr().String(), errc, nil
}
