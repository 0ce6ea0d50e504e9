package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/par"
	"botscope/internal/stream"
)

// Frontend defaults.
const (
	// DefaultQueryTimeout bounds one shard's snapshot fetch; a slower
	// shard is dropped from that response and flagged as degraded rather
	// than stalling the request.
	DefaultQueryTimeout = 2 * time.Second
	// DefaultIngestTimeout bounds one chunk's fan-out (including busy
	// retries); a shard that cannot ack within it is marked down.
	DefaultIngestTimeout = 5 * time.Second
	// ingestChunk is how many records the frontend batches per fan-out.
	ingestChunk = 256
)

// StatusError is an error that chooses its own HTTP status; the serve
// layer maps it without importing this package.
type StatusError struct {
	Status  int
	Message string
	// RetryAfterSec is surfaced as a Retry-After header when > 0.
	RetryAfterSec int
}

func (e *StatusError) Error() string   { return e.Message }
func (e *StatusError) HTTPStatus() int { return e.Status }
func (e *StatusError) RetryAfter() int { return e.RetryAfterSec }

// ErrIngestBusy is the frontend's backpressure signal: an ingest request
// arrived while another was still being applied. Nothing was accepted;
// the client should retry after a short pause.
var ErrIngestBusy = &StatusError{Status: 503, Message: "cluster: ingest in progress, retry", RetryAfterSec: 1}

// ErrNoShards means no shard could serve the request.
var ErrNoShards = &StatusError{Status: 503, Message: "cluster: no shards reachable", RetryAfterSec: 5}

// Frontend is the stateless query/ingest tier over a set of shard
// workers. It validates and orders the global ingest stream, fans each
// chunk out as records-plus-ticks, and answers live queries by merging
// shard snapshots deterministically. The only state it holds is routing
// (the ring and shard sessions) and the global stream cursor — all
// analytics state lives on the shards.
type Frontend struct {
	ring          *Ring
	queryTimeout  time.Duration
	ingestTimeout time.Duration

	mu      sync.RWMutex
	clients map[int]*shardClient // connected shards, guarded by mu
	addrs   map[int]string       // every shard ever seen, for rejoin; guarded by mu

	ingestMu  sync.Mutex    // serializes ingest (the stream is globally ordered)
	seq       atomic.Uint64 // written under ingestMu; read lock-free by status
	lastStart time.Time     // guarded by ingestMu

	// flushChunk's scratch, kept between chunks: one chunk's owners and
	// entries (ingestChunk long) and one payload buffer per shard. Guarded
	// by ingestMu. A payload is free again when its send returns — the
	// client copies it into the frame it writes.
	owners   []int
	entries  []IngestEntry
	payloads [][]byte

	// gen invalidates the merged-snapshot cache: bumped on every applied
	// chunk and every membership change.
	gen    atomic.Uint64
	snapMu sync.Mutex // serializes cache rebuilds only
	// cache holds the merged snapshot for the current generation,
	// lock-free on the read path. Rebuilds publish with
	// CompareAndSwap against the value loaded under snapMu so a
	// racing writer can never clobber a newer snapshot.
	cache memo.Slot[mergedSnap]
}

type mergedSnap struct {
	gen      uint64
	snap     stream.Snapshot
	degraded []int
}

// NewFrontend builds a frontend with the given per-shard timeouts (<= 0
// picks the defaults).
func NewFrontend(queryTimeout, ingestTimeout time.Duration) *Frontend {
	if queryTimeout <= 0 {
		queryTimeout = DefaultQueryTimeout
	}
	if ingestTimeout <= 0 {
		ingestTimeout = DefaultIngestTimeout
	}
	return &Frontend{
		ring:          NewRing(),
		queryTimeout:  queryTimeout,
		ingestTimeout: ingestTimeout,
		clients:       make(map[int]*shardClient),
		addrs:         make(map[int]string),
		owners:        make([]int, ingestChunk),
		entries:       make([]IngestEntry, ingestChunk),
	}
}

// Connect dials every shard in addrs (id → host:port) and adds the ones
// that answer to the ring. It fails if any shard is unreachable — a
// cluster should boot whole.
func (f *Frontend) Connect(ctx context.Context, addrs map[int]string) error {
	ids := make([]int, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := f.join(ctx, id, addrs[id]); err != nil {
			return fmt.Errorf("cluster: connecting shard %d at %s: %w", id, addrs[id], err)
		}
	}
	return nil
}

// Close tears down every shard session.
func (f *Frontend) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, c := range f.clients {
		c.close()
		delete(f.clients, id)
		f.ring.Remove(id)
	}
	f.gen.Add(1)
}

// join dials and registers one shard.
func (f *Frontend) join(ctx context.Context, id int, addr string) error {
	c, err := dialShard(ctx, id, addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if old := f.clients[id]; old != nil {
		old.close()
	}
	f.clients[id] = c
	f.addrs[id] = addr
	f.ring.Add(id)
	f.mu.Unlock()
	f.gen.Add(1)
	return nil
}

// markDown removes a shard whose session c (nil: the caller found none)
// failed mid-operation: its keys reroute to the survivors and queries
// report it as degraded until it rejoins. If it has rejoined since, the
// failure belongs to a closed session and the new one is left alone.
func (f *Frontend) markDown(id int, c *shardClient) {
	f.mu.Lock()
	if f.clients[id] == c {
		if c != nil {
			c.close()
			delete(f.clients, id)
		}
		f.ring.Remove(id)
	}
	f.mu.Unlock()
	f.gen.Add(1)
}

// members returns the live shard ids (sorted) and their sessions.
func (f *Frontend) members() ([]int, []*shardClient) {
	ids := f.ring.Members()
	clients := make([]*shardClient, len(ids))
	f.mu.RLock()
	for i, id := range ids {
		clients[i] = f.clients[id]
	}
	f.mu.RUnlock()
	return ids, clients
}

// LiveSnapshot returns the merged live view plus the ids of shards whose
// data is missing or stale in it (unreachable, timed out, or freshly
// rejoined and still refilling). The error is non-nil only when no shard
// answered at all.
//
// Responses are cached per (ingest, membership) generation: between
// writes, every query is served from the same merged snapshot, so a read
// storm costs one fan-out. Cache hits take no lock at all — only the
// rebuild after a generation change serializes.
func (f *Frontend) LiveSnapshot(ctx context.Context) (stream.Snapshot, []int, error) {
	if c := f.cache.Load(); c != nil && c.gen == f.gen.Load() {
		return c.snap, c.degraded, nil
	}
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	gen := f.gen.Load()
	prev := f.cache.Load()
	if prev != nil && prev.gen == gen {
		return prev.snap, prev.degraded, nil
	}

	ids, clients := f.members()
	if len(ids) == 0 {
		return stream.Snapshot{}, nil, ErrNoShards
	}
	snaps := par.Map(0, len(ids), func(i int) *ShardSnapshot {
		c := clients[i]
		if c == nil {
			return nil
		}
		sctx, cancel := context.WithTimeout(ctx, f.queryTimeout)
		defer cancel()
		s, err := c.snapshot(sctx)
		if err != nil {
			return nil
		}
		return &s
	})

	merged := MergeSnapshots(snaps)
	var degraded []int
	ok := 0
	for i, s := range snaps {
		switch {
		case s == nil:
			degraded = append(degraded, ids[i])
		case s.Snap.Ingested < merged.Ingested:
			// The shard answered but has not replicated the full tick
			// stream (it rejoined after a leave): its partition is
			// underfilled, so the merged keyed stats undercount.
			degraded = append(degraded, ids[i])
			ok++
		default:
			ok++
		}
	}
	if ok == 0 {
		return stream.Snapshot{}, degraded, ErrNoShards
	}

	if f.gen.Load() == gen {
		f.cache.CompareAndSwap(prev, &mergedSnap{gen: gen, snap: merged, degraded: degraded})
	}
	return merged, degraded, nil
}

// LiveIngest streams JSONL records from body into the cluster: validate
// and order-check at the edge, assign global sequence numbers, fan each
// chunk out with full records to the owning shard and ticks to the rest,
// and wait for every ack. It returns how many records this call applied
// and the cluster's running total.
//
// Semantics match the single-process ingest endpoint: records preceding a
// malformed or out-of-order record stay applied. A concurrent ingest is
// refused outright with ErrIngestBusy (nothing applied) — the global
// stream has one writer by construction. A shard that cannot ack a chunk
// within the ingest timeout is marked down and its partition degrades;
// the chunk still counts as applied on the survivors.
func (f *Frontend) LiveIngest(ctx context.Context, body io.Reader) (int, int, error) {
	if !f.ingestMu.TryLock() {
		return 0, 0, ErrIngestBusy
	}
	defer f.ingestMu.Unlock()

	ingested := 0
	chunk := make([]*dataset.Attack, 0, ingestChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := f.flushChunk(ctx, chunk); err != nil {
			return err
		}
		ingested += len(chunk)
		chunk = chunk[:0]
		return nil
	}

	decErr := dataset.DecodeJSONL(body, func(a *dataset.Attack) error {
		if err := a.Validate(); err != nil {
			return err
		}
		if f.seq.Load() > 0 && a.Start.Before(f.lastStart) {
			return fmt.Errorf("%w: %v < %v (attack %d)", stream.ErrOutOfOrder, a.Start, f.lastStart, a.ID)
		}
		f.seq.Add(1)
		f.lastStart = a.Start
		chunk = append(chunk, a)
		if len(chunk) >= ingestChunk {
			return flush()
		}
		return nil
	})
	flushErr := flush()

	total := int(f.seq.Load())
	if decErr != nil {
		return ingested, total, decErr
	}
	return ingested, total, flushErr
}

// flushChunk fans one ordered chunk out to every live shard and waits for
// all acks.
func (f *Frontend) flushChunk(ctx context.Context, chunk []*dataset.Attack) error {
	ids, clients := f.members()
	if len(ids) == 0 {
		return ErrNoShards
	}

	// The chunk entered the stream before the fan-out; seq for record i is
	// f.seq - len(chunk) + 1 + i.
	base := f.seq.Load() - uint64(len(chunk))

	// Build each shard's payload: the owner gets the full record, everyone
	// else gets its scalar tick, all in global order.
	owners, entries := f.owners[:len(chunk)], f.entries[:len(chunk)]
	for i, a := range chunk {
		owners[i] = f.ring.Owner(a.TargetIP)
	}
	if len(f.payloads) < len(ids) {
		f.payloads = append(f.payloads, make([][]byte, len(ids)-len(f.payloads))...)
	}
	for si, id := range ids {
		for i, a := range chunk {
			e := IngestEntry{Seq: base + 1 + uint64(i), ID: a.ID, Start: a.Start, End: a.End}
			if owners[i] == id {
				e.Record = a
			}
			entries[i] = e
		}
		w := binenc.Encoder(f.payloads[si][:0])
		wireIngest(&w, &entries)
		f.payloads[si] = w.Buf
	}
	clear(entries) // keep the array, not the chunk's records

	errs := par.Map(0, len(ids), func(i int) error {
		c := clients[i]
		if c == nil {
			return ErrShardDown
		}
		ictx, cancel := context.WithTimeout(ctx, f.ingestTimeout)
		defer cancel()
		_, err := c.sendIngest(ictx, f.payloads[i])
		return err
	})

	acked := 0
	for i, err := range errs {
		if err == nil {
			acked++
			continue
		}
		if errors.Is(err, context.Canceled) {
			return err
		}
		f.markDown(ids[i], clients[i])
	}
	if acked == 0 {
		return ErrNoShards
	}
	f.gen.Add(1)
	return nil
}

// ShardStatus describes one shard the frontend knows about.
type ShardStatus struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr"`
	InRing    bool   `json:"in_ring"`
	Connected bool   `json:"connected"`
}

// Status describes the cluster's routing state.
type Status struct {
	Shards      []ShardStatus `json:"shards"`
	RingVersion uint64        `json:"ring_version"`
	RingSize    int           `json:"ring_size"`
	Ingested    uint64        `json:"ingested"`
}

// ClusterStatus reports the routing state for the admin endpoint.
func (f *Frontend) ClusterStatus() any {
	f.mu.RLock()
	ids := make([]int, 0, len(f.addrs))
	for id := range f.addrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	inRing := make(map[int]bool)
	for _, id := range f.ring.Members() {
		inRing[id] = true
	}
	st := Status{RingVersion: f.ring.Version(), RingSize: f.ring.Size(), Ingested: f.seq.Load()}
	for _, id := range ids {
		st.Shards = append(st.Shards, ShardStatus{
			ID:        id,
			Addr:      f.addrs[id],
			InRing:    inRing[id],
			Connected: f.clients[id] != nil,
		})
	}
	f.mu.RUnlock()
	return st
}

// ShardLeave gracefully removes a shard: its keys reroute to the
// survivors, its state is dropped (so a rejoin starts clean), and queries
// report its partition as degraded until a rejoin refills it. ctx is the
// caller's (typically the admin request's) deadline, tightened to the
// ingest timeout.
func (f *Frontend) ShardLeave(ctx context.Context, id int) error {
	f.mu.Lock()
	c := f.clients[id]
	f.mu.Unlock()
	if c == nil {
		return &StatusError{Status: 404, Message: fmt.Sprintf("cluster: shard %d not connected", id)}
	}
	ctx, cancel := context.WithTimeout(ctx, f.ingestTimeout)
	defer cancel()
	_ = c.leave(ctx) // best effort: a dead shard is removed regardless
	f.markDown(id, c)
	return nil
}

// ShardJoin (re)connects a shard at its last known address and adds it
// back to the ring, under the caller's deadline tightened to the ingest
// timeout.
func (f *Frontend) ShardJoin(ctx context.Context, id int) error {
	f.mu.RLock()
	addr, known := f.addrs[id]
	f.mu.RUnlock()
	if !known {
		return &StatusError{Status: 404, Message: fmt.Sprintf("cluster: shard %d has no known address", id)}
	}
	ctx, cancel := context.WithTimeout(ctx, f.ingestTimeout)
	defer cancel()
	return f.join(ctx, id, addr)
}
