package service

import (
	"container/list"
	"sync"
)

// cacheBytes bounds StoreBackend's in-memory outcome cache, counted in
// encoded outcome bytes. An outcome larger than cacheBytes/16 is never
// cached, so one long recorded run cannot flush the small, hot cells a
// sweep re-reads.
const cacheBytes = 256 << 10

// outcomeCache is a bounded LRU of encoded outcomes keyed by content
// key. The bytes are shared: every hit returns the same slice, so
// callers must treat them as read-only (see encodedBackend).
//
// A miss reads the cell with no lock held, so a Put can replace it
// between the read and the insert. The generation closes that window: a
// reader takes it before its disk read, drop bumps it after the disk
// change, and add refuses an insert made under an older generation.
type outcomeCache struct {
	mu    sync.Mutex
	gen   uint64
	bytes int
	lru   list.List // of *cacheEntry, most recently used first
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	enc []byte
	// admitted: the cell passed scenario.Store.GetAdmitted's checks.
	admitted bool
}

// get returns a cached outcome, or on a miss the generation a later add
// of the cell must present.
func (c *outcomeCache) get(key string) ([]byte, uint64, bool) {
	return c.lookup(key, false)
}

// getAdmitted is get for a cell cached as admitted (see admit); any
// other entry is a miss.
func (c *outcomeCache) getAdmitted(key string) ([]byte, uint64, bool) {
	return c.lookup(key, true)
}

// lookup is get, or getAdmitted when admitted is set.
func (c *outcomeCache) lookup(key string, admitted bool) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && (!admitted || el.Value.(*cacheEntry).admitted) {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).enc, c.gen, true
	}
	return nil, c.gen, false
}

// add caches an encoded outcome, unless a drop ran since gen was taken
// or the outcome is oversize, then evicts the least recently used
// entries down to the budget.
func (c *outcomeCache) add(key string, enc []byte, gen uint64) {
	c.insert(key, enc, gen, false)
}

// admit is add for a cell read with scenario.Store.GetAdmitted, which
// marks an entry for the cell admitted.
func (c *outcomeCache) admit(key string, enc []byte, gen uint64) {
	c.insert(key, enc, gen, true)
}

// insert is add, or admit when admitted is set.
func (c *outcomeCache) insert(key string, enc []byte, gen uint64, admitted bool) {
	if len(enc) > cacheBytes/16 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.items[key]; ok {
		// Another reader of the same generation got here first; it read
		// the same bytes.
		el.Value.(*cacheEntry).admitted = el.Value.(*cacheEntry).admitted || admitted
		c.lru.MoveToFront(el)
		return
	}
	if c.items == nil {
		c.items = make(map[string]*list.Element)
	}
	c.items[key] = c.lru.PushFront(&cacheEntry{key: key, enc: enc, admitted: admitted})
	c.bytes += len(enc)
	for c.bytes > cacheBytes {
		c.remove(c.lru.Back())
	}
}

// drop forgets a key whose cell was just replaced and invalidates every
// read that started before.
func (c *outcomeCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

// remove unlinks one entry (caller holds mu).
func (c *outcomeCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.items, e.key)
	c.bytes -= len(e.enc)
}
