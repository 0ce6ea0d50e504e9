package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/core"
)

// Client errors.
var (
	// ErrShardBusy is a shard's backpressure refusal: its bounded ingest
	// queue was full. The caller may retry after backing off.
	ErrShardBusy = errors.New("cluster: shard busy (ingest queue full)")
	// ErrShardDown marks a shard whose connection is gone.
	ErrShardDown = errors.New("cluster: shard connection down")
)

// shardClient is the frontend's session with one shard: a single TCP
// connection multiplexing concurrent requests by ReqID (a reader
// goroutine routes acks back to waiting callers).
type shardClient struct {
	id int

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // guarded by wmu: each frame is built here, then written
	conn net.Conn

	mu      sync.Mutex
	nextReq uint32
	pending map[uint32]chan Frame // guarded by mu
	closed  bool                  // guarded by mu

	// days is the shard's Fig 2 series as of the session's last snapshot:
	// the rows it sent, appended from where each answer started. Only
	// snapshot touches it, and Frontend.snapMu serializes those calls.
	days []core.DailyCount
}

// dialShard connects, performs the hello exchange, and verifies the shard
// answers with the expected identity.
func dialShard(ctx context.Context, id int, addr string) (*shardClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &shardClient{id: id, conn: conn, pending: make(map[uint32]chan Frame)}
	// The reader ends when close() (run on any error, by Frontend
	// teardown, and by markDown) closes the conn and fails ReadFrame;
	// reply sends target the per-request 1-buffered channels and cannot
	// block.
	go c.readLoop()
	ack, err := c.hello(ctx)
	if err != nil {
		c.close()
		return nil, err
	}
	if ack.ShardID != id {
		c.close()
		return nil, fmt.Errorf("cluster: shard at %s identifies as %d, want %d", addr, ack.ShardID, id)
	}
	return c, nil
}

func (c *shardClient) readLoop() {
	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			c.close()
			return
		}
		c.mu.Lock()
		ch := c.pending[f.ReqID]
		delete(c.pending, f.ReqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// close tears the session down and fails every waiting caller.
func (c *shardClient) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint32]chan Frame)
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// call sends one request frame and waits for its ack (or ctx expiry). A
// ctx already done sends nothing: the shard never sees the request.
func (c *shardClient) call(ctx context.Context, typ FrameKind, payload []byte) (Frame, error) {
	if err := ctx.Err(); err != nil {
		return Frame{}, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Frame{}, ErrShardDown
	}
	c.nextReq++
	reqID := c.nextReq
	ch := make(chan Frame, 1)
	c.pending[reqID] = ch
	c.mu.Unlock()

	f := Frame{Type: typ, ReqID: reqID, Payload: payload}
	c.wmu.Lock()
	c.wbuf = AppendFrame(c.wbuf[:0], &f)
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.drop(reqID)
		c.close()
		return Frame{}, fmt.Errorf("%w: %v", ErrShardDown, err)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return Frame{}, ErrShardDown
		}
		if resp.Flags&flagBusy != 0 {
			return Frame{}, ErrShardBusy
		}
		if resp.Flags&flagError != 0 {
			return Frame{}, fmt.Errorf("cluster: shard %d: %s", c.id, resp.Payload)
		}
		return resp, nil
	case <-ctx.Done():
		c.drop(reqID)
		return Frame{}, ctx.Err()
	}
}

// drop abandons a pending request (timeout or write failure).
func (c *shardClient) drop(reqID uint32) {
	c.mu.Lock()
	delete(c.pending, reqID)
	c.mu.Unlock()
}

func (c *shardClient) hello(ctx context.Context) (helloAck, error) {
	resp, err := c.call(ctx, msgHello, nil)
	if err != nil {
		return helloAck{}, err
	}
	var ack helloAck
	r := binenc.Decoder(resp.Payload)
	wireHelloAck(&r, &ack)
	return ack, payloadErr(&r)
}

// sendIngest ships one ordered batch and waits for the applied ack,
// retrying busy refusals with a short backoff until ctx expires — the
// shard's bounded queue propagates as latency here and as 503 at the
// HTTP edge above.
func (c *shardClient) sendIngest(ctx context.Context, payload []byte) (ingestAck, error) {
	backoff := 2 * time.Millisecond
	for {
		resp, err := c.call(ctx, msgIngest, payload)
		if err == nil {
			var ack ingestAck
			r := binenc.Decoder(resp.Payload)
			wireIngestAck(&r, &ack)
			return ack, payloadErr(&r)
		}
		if !errors.Is(err, ErrShardBusy) {
			return ingestAck{}, err
		}
		select {
		case <-ctx.Done():
			return ingestAck{}, fmt.Errorf("%w: %v", ErrShardBusy, ctx.Err())
		case <-time.After(backoff):
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// snapshot fetches and decodes the shard's current view, asking for the
// day rows from the session's last held one on — the one that may still
// have been open. It appends them to the held rows from where the answer
// starts, so c.days is the shard's whole series after every answer, and
// returns the snapshot with that series as its Daily rows (DaysFrom 0),
// as MergeSnapshots takes it; they alias the held rows, which the merge
// only reads. An answer that starts past the held rows fails, and leaves
// them alone.
func (c *shardClient) snapshot(ctx context.Context) (ShardSnapshot, error) {
	w := binenc.Encoder(nil)
	wireSnapReq(&w, &snapReq{Cursor: max(len(c.days)-1, 0)})
	resp, err := c.call(ctx, msgSnap, w.Buf)
	if err != nil {
		return ShardSnapshot{}, err
	}
	var s ShardSnapshot
	r := binenc.Decoder(resp.Payload)
	wireSnapshot(&r, &s)
	if err := payloadErr(&r); err != nil {
		return ShardSnapshot{}, err
	}
	if s.DaysFrom < 0 || s.DaysFrom > len(c.days) {
		return ShardSnapshot{}, fmt.Errorf("cluster: shard %d sent days from row %d, session holds %d", c.id, s.DaysFrom, len(c.days))
	}
	c.days = append(c.days[:s.DaysFrom], s.Snap.Daily.Days...)
	s.DaysFrom, s.Snap.Daily.Days = 0, c.days
	return s, nil
}

// leave asks the shard to drop state for a clean future rejoin.
func (c *shardClient) leave(ctx context.Context) error {
	_, err := c.call(ctx, msgLeave, nil)
	return err
}
