package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"botscope/internal/binenc"
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
	id   int
	addr string

	wmu  sync.Mutex // serializes frame writes
	conn net.Conn

	mu      sync.Mutex
	nextReq uint32
	pending map[uint32]chan Frame // guarded by mu
	closed  bool                  // guarded by mu
}

// dialShard connects, performs the hello exchange, and verifies the shard
// answers with the expected identity.
func dialShard(ctx context.Context, id int, addr string) (*shardClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &shardClient{id: id, addr: addr, conn: conn, pending: make(map[uint32]chan Frame)}
	// The reader's loop has no channel receive to prove cancellation, but
	// close() (run on any error, by Frontend teardown, and by markDown)
	// closes the conn, which fails ReadFrame and ends the loop; reply
	// sends target the per-request 1-buffered channels and cannot block.
	go c.readLoop() //botvet:ignore goleak audited: terminated by conn close, sends are buffered per request
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

// call sends one request frame and waits for its ack (or ctx expiry).
func (c *shardClient) call(ctx context.Context, typ FrameKind, payload []byte) (Frame, error) {
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
	_, err := c.conn.Write(AppendFrame(nil, &f))
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
	// One timer reused across retries: time.After would allocate a timer
	// per iteration that the runtime holds until it fires. The select
	// always drains timer.C (the other branch returns), so a plain Reset
	// is safe.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
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
		if timer == nil {
			timer = time.NewTimer(backoff)
		} else {
			timer.Reset(backoff)
		}
		select {
		case <-ctx.Done():
			return ingestAck{}, fmt.Errorf("%w: %v", ErrShardBusy, ctx.Err())
		case <-timer.C:
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// snapshot fetches and decodes the shard's current view.
func (c *shardClient) snapshot(ctx context.Context) (ShardSnapshot, error) {
	resp, err := c.call(ctx, msgSnap, nil)
	if err != nil {
		return ShardSnapshot{}, err
	}
	var s ShardSnapshot
	r := binenc.Decoder(resp.Payload)
	wireSnapshot(&r, &s)
	return s, payloadErr(&r)
}

// leave asks the shard to drop state for a clean future rejoin.
func (c *shardClient) leave(ctx context.Context) error {
	_, err := c.call(ctx, msgLeave, nil)
	return err
}
