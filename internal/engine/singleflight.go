package engine

import (
	"fmt"
	"sync"
)

// buildCache is a concurrency-safe build-once cache with per-key
// singleflight de-duplication: concurrent getters of a missing key block
// on one build instead of each building (bitmap index construction is a
// full table pass — the expensive part of planning).
// Build errors are returned to every waiter but not cached, so a failed
// build is retried on the next get.
type buildCache[V any] struct {
	mu    sync.RWMutex
	done  map[string]V
	calls map[string]*buildCall[V]
}

type buildCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

func newBuildCache[V any]() *buildCache[V] {
	return &buildCache[V]{
		done:  make(map[string]V),
		calls: make(map[string]*buildCall[V]),
	}
}

// get returns the cached value for key, building it with build on a miss.
// At most one build per key runs at a time; other callers wait for it.
func (c *buildCache[V]) get(key string, build func() (V, error)) (V, error) {
	c.mu.RLock()
	if v, ok := c.done[key]; ok {
		c.mu.RUnlock()
		return v, nil
	}
	c.mu.RUnlock()

	c.mu.Lock()
	if v, ok := c.done[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		call.wg.Wait()
		return call.val, call.err
	}
	call := &buildCall[V]{}
	call.wg.Add(1)
	c.calls[key] = call
	c.mu.Unlock()

	// A panicking build must still release waiters (with an error) and
	// clear the in-flight entry, or every later get for the key would
	// block forever on wg.Wait; the panic then continues on the leader.
	defer func() {
		if r := recover(); r != nil {
			call.err = fmt.Errorf("engine: build for %q panicked: %v", key, r)
			c.mu.Lock()
			delete(c.calls, key)
			c.mu.Unlock()
			call.wg.Done()
			panic(r)
		}
	}()
	call.val, call.err = build()
	c.mu.Lock()
	if call.err == nil {
		c.done[key] = call.val
	}
	delete(c.calls, key)
	c.mu.Unlock()
	call.wg.Done()
	return call.val, call.err
}
