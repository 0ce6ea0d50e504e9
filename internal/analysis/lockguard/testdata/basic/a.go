// Package basic seeds lockguard violations and approved patterns.
package basic

import "sync"

type counter struct {
	mu        sync.Mutex
	n         int      // guarded by mu
	names     []string // guarded by mu
	unguarded int
}

func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) Bad() int {
	return c.n // want `access to n \(guarded by mu\) without holding the mutex`
}

func (c *counter) Free() int {
	return c.unguarded
}

// addLocked appends one name.
//
//lockguard:held mu
func (c *counter) addLocked(name string) {
	c.names = append(c.names, name)
}

func (c *counter) Add(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(name)
}

func (c *counter) BadAdd(name string) {
	c.addLocked(name) // want `call to addLocked requires holding mu`
}

func (c *counter) Allowed() int {
	//botvet:ignore lockguard fixture exercises the ignore directive
	return c.n
}

// TryInc is the guarded early-return idiom: a failed TryLock exits
// before any guarded access, so TryLock counts as an acquisition.
func (c *counter) TryInc() bool {
	if !c.mu.TryLock() {
		return false
	}
	defer c.mu.Unlock()
	c.n++
	return true
}

// TryEach accesses guarded state from a closure while the enclosing
// function holds the mutex via TryLock.
func (c *counter) TryEach(f func(string)) bool {
	if !c.mu.TryLock() {
		return false
	}
	defer c.mu.Unlock()
	walk := func() {
		for _, name := range c.names {
			f(name)
		}
	}
	walk()
	return true
}

type rw struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

func (r *rw) Get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

func (r *rw) BadGet(k string) int {
	return r.m[k] // want `access to m \(guarded by mu\) without holding the mutex`
}

type broken struct {
	mu sync.Mutex
	// guarded by mux
	x int // want `field is 'guarded by mux' but the struct has no mutex field mux`
}

func (b *broken) X() int { return b.x }
