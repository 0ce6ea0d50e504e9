package cluster

import (
	"net/netip"
	"sort"
	"sync"
)

// ringReplicas is the number of virtual nodes per shard. 64 points per
// shard keeps the partition imbalance of an FNV-placed ring within a few
// percent for small clusters while the ring stays tiny (a 16-shard ring is
// 1024 points).
const ringReplicas = 64

// Ring is a consistent-hash ring mapping target IPs to shard ids. Targets
// are the partition key because every keyed statistic the shards maintain
// — protocol and family counters, daily buckets, and above all the
// collaboration windows, which join attacks *by target* — stays exact
// when the stream is split by target and summed back.
//
// The ring is safe for concurrent use. Version increments on every
// membership change so snapshot caches can be invalidated.
type Ring struct {
	mu      sync.RWMutex
	version uint64
	members []int       // sorted shard ids, guarded by mu
	points  []ringPoint // sorted by hash, guarded by mu
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the given shard ids.
func NewRing(shards ...int) *Ring {
	r := &Ring{}
	for _, id := range shards {
		r.Add(id)
	}
	return r
}

// Add inserts a shard's virtual nodes. Adding a present member is a no-op.
func (r *Ring) Add(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m == id {
			return
		}
	}
	r.members = append(r.members, id)
	sort.Ints(r.members)
	for rep := 0; rep < ringReplicas; rep++ {
		r.points = append(r.points, ringPoint{hash: pointHash(id, rep), shard: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.version++
}

// Remove deletes a shard's virtual nodes, rerouting its keys to the
// surviving members. Removing an absent member is a no-op.
func (r *Ring) Remove(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	found := false
	for i, m := range r.members {
		if m == id {
			r.members = append(r.members[:i], r.members[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.version++
}

// Members returns the sorted live shard ids.
func (r *Ring) Members() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int(nil), r.members...)
}

// Size returns the number of live shards.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Version returns the membership generation, incremented on every Add or
// Remove that changes the ring.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Owner returns the shard owning addr's partition: the first virtual node
// clockwise from the target's hash point. It returns -1 for an empty
// ring. Ownership depends only on the membership set, never on join
// order.
func (r *Ring) Owner(addr netip.Addr) int {
	h := addrHash(addr)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return -1
	}
	// First point with hash >= h, wrapping to the start of the ring.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.points[lo].shard
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// addrHash hashes a target address (its 16-byte form, so a v4 target and
// its v4-mapped form land identically) with FNV-1a.
func addrHash(a netip.Addr) uint64 {
	b := a.As16()
	h := uint64(fnvOffset)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// pointHash places virtual node rep of a shard on the ring.
func pointHash(id, rep int) uint64 {
	h := uint64(fnvOffset)
	v := uint64(id)<<16 | uint64(uint16(rep))
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
