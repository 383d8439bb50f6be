package gpusim

// segmentCache is a coarse L2 reuse model: an LRU over named data segments
// (e.g. "dominator column 17") with byte-granular capacity. A block that
// touches a segment already resident reads it at L2 cost; the first toucher
// pays DRAM cost and installs it. This captures the mechanism behind
// B-Splitting's cache gain: split sub-blocks share their parent vector, so
// all but the first find it in L2.
//
// A run numbers its grid's segments densely (see launch.resolveClasses),
// so the LRU is a list linked through a slice indexed by that number.
type segmentCache struct {
	capacity int
	used     int
	// head is the most and tail the least recently touched resident
	// segment, -1 when none is resident.
	head, tail int32
	segs       []segEntry
	resident   int
}

// segEntry is one segment's place in the LRU: its size while resident,
// and its more recent (prev) and less recent (next) neighbours.
type segEntry struct {
	size       int
	prev, next int32
	resident   bool
}

// newSegmentCache returns an empty cache of the given capacity over the
// segments numbered 0 to n-1.
func newSegmentCache(capacity, n int) segmentCache {
	return segmentCache{capacity: capacity, head: -1, tail: -1, segs: make([]segEntry, n)}
}

// touch records an access to segment seg of the given size and reports
// whether it hit. Segments larger than the cache never hit and are not
// installed. A size change on an existing segment re-accounts it.
func (c *segmentCache) touch(seg, size int) bool {
	if seg < 0 || size <= 0 {
		return false
	}
	if size > c.capacity {
		return false
	}
	e := &c.segs[seg]
	if e.resident {
		c.unlink(int32(seg))
		c.pushFront(int32(seg))
		if e.size != size {
			c.used += size - e.size
			e.size = size
			c.evict()
		}
		return true
	}
	e.size = size
	e.resident = true
	c.resident++
	c.used += size
	c.pushFront(int32(seg))
	c.evict()
	return false
}

// pushFront links seg in as the most recent resident segment.
func (c *segmentCache) pushFront(seg int32) {
	e := &c.segs[seg]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.segs[c.head].prev = seg
	} else {
		c.tail = seg
	}
	c.head = seg
}

// unlink removes seg from the LRU list.
func (c *segmentCache) unlink(seg int32) {
	e := &c.segs[seg]
	if e.prev >= 0 {
		c.segs[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.segs[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// evict trims least-recently-used segments until usage fits capacity.
func (c *segmentCache) evict() {
	for c.used > c.capacity && c.tail >= 0 {
		back := c.tail
		e := &c.segs[back]
		c.unlink(back)
		e.resident = false
		c.resident--
		c.used -= e.size
	}
}

// len returns the number of resident segments (used by tests).
func (c *segmentCache) len() int { return c.resident }
