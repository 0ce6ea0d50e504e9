package cluster

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// testAddrs generates a deterministic spread of IPv4 and IPv6 addresses.
func testAddrs(n int) []netip.Addr {
	addrs := make([]netip.Addr, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			var b [16]byte
			b[0] = 0x20
			b[1] = 0x01
			binary.BigEndian.PutUint32(b[12:], uint32(i*2654435761))
			addrs = append(addrs, netip.AddrFrom16(b))
			continue
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(i*2654435761))
		addrs = append(addrs, netip.AddrFrom4(b))
	}
	return addrs
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing()
	if got := r.Owner(netip.MustParseAddr("1.2.3.4")); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
	v0 := r.Version()
	r.Add(2)
	r.Add(0)
	r.Add(1)
	r.Add(1) // idempotent
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("members = %v, want [0 1 2]", got)
	}
	if r.Size() != 3 {
		t.Fatalf("size = %d", r.Size())
	}
	if r.Version() == v0 {
		t.Fatal("version did not advance on membership change")
	}
}

// TestRingConsistentReassignment is the consistent-hash property: removing
// one member only reroutes the keys that member owned, and adding it back
// restores the original assignment exactly.
func TestRingConsistentReassignment(t *testing.T) {
	r := NewRing()
	for id := 0; id < 4; id++ {
		r.Add(id)
	}
	addrs := testAddrs(512)

	before := make([]int, len(addrs))
	counts := make(map[int]int)
	for i, a := range addrs {
		before[i] = r.Owner(a)
		if before[i] < 0 || before[i] > 3 {
			t.Fatalf("owner(%v) = %d", a, before[i])
		}
		counts[before[i]]++
	}
	// Every member should own a nontrivial share of a 512-key spread.
	for id := 0; id < 4; id++ {
		if counts[id] == 0 {
			t.Fatalf("member %d owns no keys: %v", id, counts)
		}
	}

	r.Remove(2)
	for i, a := range addrs {
		after := r.Owner(a)
		if after == 2 {
			t.Fatalf("removed member still owns %v", a)
		}
		if before[i] != 2 && after != before[i] {
			t.Fatalf("key %v moved %d → %d though its owner stayed", a, before[i], after)
		}
	}

	r.Add(2)
	for i, a := range addrs {
		if got := r.Owner(a); got != before[i] {
			t.Fatalf("after rejoin, owner(%v) = %d, want %d", a, got, before[i])
		}
	}
}

// TestRingOwnerDeterministic: the same address maps to the same owner on
// an independently built ring with the same membership.
func TestRingOwnerDeterministic(t *testing.T) {
	build := func(order []int) *Ring {
		r := NewRing()
		for _, id := range order {
			r.Add(id)
		}
		return r
	}
	a := build([]int{0, 1, 2, 3, 4})
	b := build([]int{4, 2, 0, 3, 1}) // insertion order must not matter
	for _, addr := range testAddrs(256) {
		if ao, bo := a.Owner(addr), b.Owner(addr); ao != bo {
			t.Fatalf("owner(%v) differs across build orders: %d vs %d", addr, ao, bo)
		}
	}
}

// TestRingHashZeroAlloc holds the per-record routing path to zero
// allocations (DESIGN §5b): the frontend asks Owner once per ingested
// record, and a membership change hashes every virtual node.
func TestRingHashZeroAlloc(t *testing.T) {
	r := NewRing(0, 1, 2)
	addrs := testAddrs(64)
	i := 0
	var sink uint64
	for name, kernel := range map[string]func(){
		"Ring.Owner": func() { sink += uint64(r.Owner(addrs[i%len(addrs)])); i++ },
		"addrHash":   func() { sink += addrHash(addrs[i%len(addrs)]); i++ },
		"pointHash":  func() { sink += pointHash(i%7, i); i++ },
	} {
		if n := testing.AllocsPerRun(100, kernel); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
	_ = sink
}
