package qosd

import (
	"container/list"
	"sync"
)

// responseCache is a small mutex-guarded LRU keyed by the canonical
// request key. Values are completed Responses (stored by value; the
// served copy is mutated to set Cached without touching the stored
// one). A zero-capacity cache stores nothing.
type responseCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type cacheEntry struct {
	key  string
	resp Response
}

func newResponseCache(capacity int) *responseCache {
	return &responseCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
	}
}

// get returns a copy of the cached response for key, marking it served
// from cache.
func (c *responseCache) get(key string) (Response, bool) {
	if c == nil || c.cap <= 0 {
		return Response{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return Response{}, false
	}
	c.ll.MoveToFront(el)
	resp := el.Value.(*cacheEntry).resp
	resp.Cached = true
	return resp, true
}

func (c *responseCache) put(key string, resp Response) {
	if c == nil || c.cap <= 0 {
		return
	}
	resp.Cached = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).resp = resp
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}
