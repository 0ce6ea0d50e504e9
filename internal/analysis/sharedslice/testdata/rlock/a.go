// Package basic seeds read-locked-snapshot violations and the approved
// deep-copy idioms.
package basic

import "sync"

type reg struct {
	mu    sync.RWMutex
	items map[string]int
	list  []int
	n     int
}

func (r *reg) Items() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.items // want `r\.items \(reference type\) escapes Items while only an RLock is held`
}

func (r *reg) ItemsCopy() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.items))
	for k, v := range r.items {
		out[k] = v
	}
	return out
}

type view struct {
	List []int
}

func (r *reg) View() view {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return view{List: r.list} // want `r\.list \(reference type\) escapes View while only an RLock is held`
}

func (r *reg) ListCopy() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int(nil), r.list...)
}

func (r *reg) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// Mutate holds the write lock; the rule only polices read-locked
// paths (writers hand out ownership deliberately).
func (r *reg) Mutate() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.list
}

func (r *reg) unexported() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.list
}

func (r *reg) Allowed() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	//botvet:ignore sharedslice fixture exercises the ignore directive
	return r.list
}

func (r *reg) Lookup(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.items[k]
}
