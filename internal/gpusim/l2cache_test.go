package gpusim

import "testing"

func TestSegmentCacheHitOnReuse(t *testing.T) {
	c := newSegmentCache(1000, 8)
	if c.touch(1, 400) {
		t.Fatal("first touch hit")
	}
	if !c.touch(1, 400) {
		t.Fatal("second touch missed")
	}
}

func TestSegmentCacheEviction(t *testing.T) {
	c := newSegmentCache(1000, 8)
	c.touch(1, 400)
	c.touch(2, 400)
	c.touch(3, 400) // evicts 1
	if c.touch(1, 400) {
		t.Fatal("evicted segment still hit")
	}
	// 1 was just reinstalled, evicting 2 (LRU order after 3, 1).
	if c.touch(2, 400) {
		t.Fatal("segment 2 should have been evicted")
	}
	// Re-installing 2 in turn evicted 3; 1 and 2 remain.
	if !c.touch(1, 400) || !c.touch(2, 400) {
		t.Fatal("segments 1 and 2 should be resident")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d segments, want 2", c.len())
	}
}

func TestSegmentCacheOversized(t *testing.T) {
	c := newSegmentCache(100, 8)
	if c.touch(1, 200) {
		t.Fatal("oversized segment hit")
	}
	if c.touch(1, 200) {
		t.Fatal("oversized segment was installed")
	}
	if c.len() != 0 {
		t.Fatalf("cache holds %d oversized segments", c.len())
	}
}

func TestSegmentCacheResize(t *testing.T) {
	c := newSegmentCache(1000, 8)
	c.touch(1, 100)
	if !c.touch(1, 900) {
		t.Fatal("resize not treated as hit")
	}
	if c.used != 900 {
		t.Fatalf("used = %d after resize, want 900", c.used)
	}
	c.touch(2, 200) // forces eviction of 1 (LRU back) to fit
	if c.used > 1000 {
		t.Fatalf("over capacity: %d", c.used)
	}
}

func TestSegmentCacheIgnoresNoSegment(t *testing.T) {
	c := newSegmentCache(100, 8)
	if c.touch(NoSegment, 50) {
		t.Fatal("NoSegment hit")
	}
	if c.len() != 0 {
		t.Fatal("NoSegment installed")
	}
	if c.touch(5, 0) {
		t.Fatal("zero-size segment hit")
	}
}
