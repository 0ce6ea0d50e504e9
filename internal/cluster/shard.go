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

// Shard is one worker of the sharded serve tier. It holds a target
// partition of the live feed in a stream.Partition — the keys of its own
// records, and of everyone else's only a count and a horizon per frame —
// and speaks the wire protocol over TCP: ingest batches and snapshot
// requests queue through a single applier goroutine, so reads observe
// every batch acked before them (FIFO read-your-writes). The whole-feed
// statistics are the frontend's; a shard holds none.
type Shard struct {
	id int

	part    *stream.Partition // applier goroutine only, after Serve starts
	applied atomic.Uint64     // records of the global stream covered

	work chan shardJob

	// Applier-local scratch, reused from frame to frame: the decoded ingest
	// batch, and the snapshot response's encoding (writeFrame copies it).
	batch   ingestBatch
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
		id:    id,
		part:  stream.NewPartition(),
		work:  make(chan shardJob, queueDepth),
		conns: make(map[net.Conn]bool),
	}
}

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
// decode clears it first, so every record gets a fresh Attack — open
// collaboration windows keep the ones from earlier frames.
func (s *Shard) applyIngest(job shardJob) {
	r := binenc.Decoder(job.frame.Payload)
	wireIngest(&r, &s.batch)
	err := payloadErr(&r)
	if err == nil {
		err = s.apply(&s.batch)
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

// apply folds an ordered batch into the partition: its records
// (Partition.Ingest checks each with ValidateKey), then the chunk they came
// in as covered. A refused record leaves the chunk uncovered; the records
// before it stay folded.
func (s *Shard) apply(b *ingestBatch) error {
	if b.Covered < uint64(len(b.Entries)) || b.Covered > ingestChunk {
		return fmt.Errorf("cluster: shard %d: a frame covering %d records carries %d", s.id, b.Covered, len(b.Entries))
	}
	for i := range b.Entries {
		e := &b.Entries[i]
		if err := s.part.Ingest(e.Record, e.Seq); err != nil {
			return fmt.Errorf("cluster: shard %d entry %d: %w", s.id, i, err)
		}
	}
	s.part.Advance(int(b.Covered), b.Horizon)
	s.applied.Add(b.Covered)
	return nil
}

// applySnap answers a snapshot request with the day rows from the
// request's cursor on, clamped to the shard's newest row. A negative or
// malformed cursor is refused with an error ack.
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
	snap := ShardSnapshot{ShardID: s.id, Applied: s.applied.Load(), Snap: s.part.Snapshot()}
	days := snap.Snap.Daily.Days
	snap.DaysFrom = max(min(req.Cursor, len(days)-1), 0)
	snap.Snap.Daily = core.DailyStats{Days: days[snap.DaysFrom:]}
	w := binenc.Encoder(s.snapBuf[:0])
	wireSnapshot(&w, &snap)
	s.snapBuf = w.Buf
	_ = job.conn.writeFrame(&Frame{Type: msgSnapResp, ReqID: job.frame.ReqID, Payload: s.snapBuf})
}

// applyLeave resets the shard to empty for a clean rejoin: a shard that
// left the ring missed frames while away, so its partition's records and
// collaboration horizon are unrecoverable — the honest state to rejoin
// with is none, reported as degraded data until the partition refills.
func (s *Shard) applyLeave(job shardJob) {
	s.part = stream.NewPartition()
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
