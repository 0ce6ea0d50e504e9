package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
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
	// ingestChunk is how many records the frontend batches per fan-out,
	// and so the most entries one ingest frame may carry (wireIngest).
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

// Frontend is the query/ingest tier over a set of shard workers. It
// validates whole records and keeps their keys (dataset.DecodeJSONLKeys),
// orders the global ingest stream, folds the whole-feed statistics, fans
// each chunk out to every shard as its own records' keys plus the chunk's
// length and horizon, and answers live queries by merging shard snapshots
// deterministically.
//
// Besides routing it holds two analytics states: the whole feed's
// stream.Scalars (§II-B load, §III-B intervals, §III-C durations), which
// only the one place that sees every record in order can fold, and Fig
// 2's closed days. Each session holds its shard's day rows, so a snapshot
// carries only the rows past them, and the closed days of the sessions
// that answer are folded once into a held core.DailyMerge.
type Frontend struct {
	ring          *Ring
	queryTimeout  time.Duration
	ingestTimeout time.Duration

	mu      sync.RWMutex
	clients map[int]*shardClient // connected shards, guarded by mu
	addrs   map[int]string       // every shard ever seen, for rejoin; guarded by mu

	ingestMu sync.Mutex // serializes ingest (the stream is globally ordered)
	// fanned counts the records whose chunk has been fanned out, acked or
	// not — between ingests, the running total. A shard that has covered
	// fewer missed frames. Written under ingestMu.
	fanned atomic.Uint64

	// scalars folds every record LiveIngest accepts, in order. Written
	// under ingestMu; its own mutex, not snapMu, which a rebuild holds
	// across the shard fan-out, keeps readers off it.
	scalarsMu sync.Mutex
	scalars   *stream.Scalars // guarded by scalarsMu

	// flushChunk's scratch, kept between chunks: one chunk's owners, one
	// shard's entries (each ingestChunk long) and one payload buffer per
	// shard. Guarded by ingestMu. A payload is free again when its send
	// returns — the client copies it into the frame it writes.
	owners   []int
	entries  []IngestEntry
	payloads [][]byte

	// gen invalidates the merged-snapshot cache: bumped on every chunk
	// fanned out and every membership change.
	gen    atomic.Uint64
	snapMu sync.Mutex // serializes cache rebuilds only
	// cache holds the merged snapshot for the current generation,
	// lock-free on the read path. Rebuilds publish with
	// CompareAndSwap against the value loaded under snapMu so a
	// racing writer can never clobber a newer snapshot.
	cache memo.Slot[mergedSnap]

	// daily merges Fig 2 over the sessions in dailyFor, the ones that
	// answered the last rebuild; a rebuild answered by any other set
	// starts it again from zero.
	daily    core.DailyMerge // guarded by snapMu
	dailyFor []*shardClient  // guarded by snapMu
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
		scalars:       stream.NewScalars(),
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
// answered at all. The per-target half is the shards' partials merged;
// the whole-feed half is the frontend's scalars, which a read racing an
// ingest may find up to a chunk ahead of it.
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
	fanned := int(f.fanned.Load()) // what every shard fed since it joined has covered
	snaps := eachShard(len(ids), func(i int) *ShardSnapshot {
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

	answered := make([]*shardClient, 0, len(snaps))
	for i, s := range snaps {
		if s != nil {
			answered = append(answered, clients[i])
		}
	}
	if !slices.Equal(answered, f.dailyFor) {
		f.daily, f.dailyFor = core.DailyMerge{}, answered
	}
	merged := mergeSnapshots(snaps, &f.daily)
	f.scalarsMu.Lock()
	f.scalars.Fill(&merged)
	f.scalarsMu.Unlock()
	var degraded []int
	ok := 0
	for i, s := range snaps {
		switch {
		case s == nil:
			degraded = append(degraded, ids[i])
		case s.Snap.Ingested < fanned:
			// The shard answered but missed frames (it rejoined after a
			// leave): its partition is underfilled, so the merged
			// per-target stats undercount.
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
// whole at the edge — dataset.DecodeJSONLKeys is the only place a
// record's bot IPs and target geolocation are checked, and it hands over
// the key alone, since no shard receives the rest — fold each record into
// the whole-feed scalars, whose order check is the cluster's one, fan each
// chunk out with its records' keys to their owning shards and its length
// and horizon to every shard, and wait for every ack. It returns how many
// records this call applied and the cluster's running total, a chunk no
// shard acked included.
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
		err := f.flushChunk(ctx, chunk)
		if err == nil {
			ingested += len(chunk)
		}
		chunk = chunk[:0] // fanned out either way: never sent twice
		return err
	}

	decErr := dataset.DecodeJSONLKeys(body, func(a *dataset.Attack) error {
		f.scalarsMu.Lock()
		err := f.scalars.Observe(a.ID, a.Start, a.End)
		f.scalarsMu.Unlock()
		if err != nil {
			return err
		}
		chunk = append(chunk, a)
		if len(chunk) >= ingestChunk {
			return flush()
		}
		return nil
	})
	flushErr := flush()

	total := int(f.fanned.Load())
	if decErr != nil {
		return ingested, total, decErr
	}
	return ingested, total, flushErr
}

// flushChunk fans one ordered chunk, already in the scalars, out to every
// live shard and waits for all acks. Whatever the fan-out does, the
// stream has moved on by the chunk, and so has the merged view.
func (f *Frontend) flushChunk(ctx context.Context, chunk []*dataset.Attack) error {
	defer func() {
		f.fanned.Add(uint64(len(chunk)))
		f.gen.Add(1)
	}()
	ids, clients := f.members()
	if len(ids) == 0 {
		return ErrNoShards
	}
	f.encodeChunk(ids, chunk)

	errs := eachShard(len(ids), func(i int) error {
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
	return nil
}

// encodeChunk builds each member's payload for chunk into f.payloads, in
// ids' order: the chunk's length and horizon, and the records the member
// owns — of which wireAttack sends only the key — in global order. Record
// i of the chunk is record fanned+1+i of the stream.
func (f *Frontend) encodeChunk(ids []int, chunk []*dataset.Attack) {
	base := f.fanned.Load()
	owners := f.owners[:len(chunk)]
	for i, a := range chunk {
		owners[i] = f.ring.Owner(a.TargetIP)
	}
	if len(f.payloads) < len(ids) {
		f.payloads = append(f.payloads, make([][]byte, len(ids)-len(f.payloads))...)
	}
	b := ingestBatch{Covered: uint64(len(chunk)), Horizon: chunk[len(chunk)-1].Start}
	for si, id := range ids {
		b.Entries = f.entries[:0]
		for i, a := range chunk {
			if owners[i] == id {
				b.Entries = append(b.Entries, IngestEntry{Seq: base + 1 + uint64(i), Record: a})
			}
		}
		w := binenc.Encoder(f.payloads[si][:0])
		wireIngest(&w, &b)
		f.payloads[si] = w.Buf
	}
	clear(f.entries) // keep the array, not the chunk's records
}

// eachShard runs f(i) for every member index i in [0, n), each on its
// own goroutine, and returns the results in index order. A shard call
// waits on its peer, not on a core, so the fan-out is as wide as the
// membership: shards that stall cost one timeout together, whatever
// GOMAXPROCS is.
func eachShard[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f(i)
		}()
	}
	wg.Wait()
	return out
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
	st := Status{RingVersion: f.ring.Version(), RingSize: f.ring.Size(), Ingested: f.fanned.Load()}
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
