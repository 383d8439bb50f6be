package cluster

import (
	"reflect"
	"testing"
)

// eligible builds n idle, unsaturated candidates with instance indices
// 0..n-1.
func eligible(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{Index: i, Name: "i", QueueDepth: 0, QueueCapacity: 8}
	}
	return out
}

func TestPoliciesRegistry(t *testing.T) {
	want := []string{PolicyAffinity, PolicyLeastLoaded, PolicyRoundRobin}
	if got := Policies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	if _, err := NewPolicy("no-such-policy", PolicyOptions{}); err == nil {
		t.Fatal("NewPolicy accepted an unknown name")
	}
	for _, name := range want {
		p, err := NewPolicy(name, PolicyOptions{})
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p, _ := NewPolicy(PolicyRoundRobin, PolicyOptions{})
	in := PickInput{Eligible: eligible(3)}
	var got []int
	for range 6 {
		d := p.Pick(in)
		if d.AffinityHit {
			t.Fatal("round-robin reported an affinity hit")
		}
		got = append(got, d.Index)
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round-robin order %v, want %v", got, want)
	}
}

func TestLeastLoadedPrefersIdleAndSkipsSaturated(t *testing.T) {
	p, _ := NewPolicy(PolicyLeastLoaded, PolicyOptions{})
	in := PickInput{Eligible: eligible(3)}
	in.Eligible[0].Outstanding = 2
	in.Eligible[0].PendingWork = 100
	in.Eligible[2].Outstanding = 1
	if d := p.Pick(in); d.Index != 1 {
		t.Fatalf("least-loaded picked %d, want idle candidate 1", d.Index)
	}
	// Saturate the idle one: the lightly loaded candidate wins.
	in.Eligible[1].QueueDepth = in.Eligible[1].QueueCapacity
	if d := p.Pick(in); d.Index != 2 {
		t.Fatalf("least-loaded picked %d, want non-saturated candidate 2", d.Index)
	}
	// Everyone saturated: still a deterministic pick — the lowest load
	// score overall (the idle-but-full candidate 1) takes the 429s.
	for i := range in.Eligible {
		in.Eligible[i].QueueDepth = in.Eligible[i].QueueCapacity
	}
	if d := p.Pick(in); d.Index != 1 {
		t.Fatalf("least-loaded picked %d under full saturation, want 1", d.Index)
	}
}

func TestLeastLoadedDeterministicTies(t *testing.T) {
	p, _ := NewPolicy(PolicyLeastLoaded, PolicyOptions{})
	in := PickInput{Eligible: eligible(4)}
	for range 10 {
		if d := p.Pick(in); d.Index != 0 {
			t.Fatalf("tie broken to %d, want lowest index 0", d.Index)
		}
	}
}

func TestAffinityHitAndMiss(t *testing.T) {
	p, _ := NewPolicy(PolicyAffinity, PolicyOptions{})
	keyA := AffinityKey{FpA: 1, FpB: 1}
	keyB := AffinityKey{FpA: 2, FpB: 2}

	in := PickInput{Key: keyA, Eligible: eligible(3)}
	first := p.Pick(in)
	if first.AffinityHit {
		t.Fatal("cold structure reported an affinity hit")
	}
	// Same structure again: must hit and stick to the same instance even
	// when another instance is now idler.
	in.Eligible[first.Index].Outstanding = 5
	again := p.Pick(in)
	if !again.AffinityHit || again.Index != first.Index {
		t.Fatalf("repeat pick = %+v, want affinity hit on %d", again, first.Index)
	}
	// A different structure is a miss and lands least-loaded.
	other := p.Pick(PickInput{Key: keyB, Eligible: in.Eligible})
	if other.AffinityHit {
		t.Fatal("new structure reported an affinity hit")
	}
}

func TestAffinityFallbackRepinsOnSaturated(t *testing.T) {
	p, _ := NewPolicy(PolicyAffinity, PolicyOptions{})
	key := AffinityKey{FpA: 7, FpB: 7}
	in := PickInput{Key: key, Eligible: eligible(2)}
	first := p.Pick(in)

	// Saturate the pinned instance: the decision diverts (no hit) to the
	// other instance and the pin follows it.
	in.Eligible[first.Index].QueueDepth = in.Eligible[first.Index].QueueCapacity
	diverted := p.Pick(in)
	if diverted.AffinityHit || diverted.Index == first.Index {
		t.Fatalf("diverted pick = %+v, want miss on the other instance", diverted)
	}

	// Un-saturate everyone: the structure now hits on the NEW instance —
	// the divert rewrote the pin (the plan lives there now).
	in.Eligible[first.Index].QueueDepth = 0
	repinned := p.Pick(in)
	if !repinned.AffinityHit || repinned.Index != diverted.Index {
		t.Fatalf("re-pinned pick = %+v, want hit on %d", repinned, diverted.Index)
	}
}

func TestAffinityFallbackOnCordoned(t *testing.T) {
	p, _ := NewPolicy(PolicyAffinity, PolicyOptions{})
	key := AffinityKey{FpA: 9, FpB: 9}
	all := eligible(2)
	first := p.Pick(PickInput{Key: key, Eligible: all})

	// The pinned instance vanishes from the eligible set (cordoned): the
	// pick diverts without a hit.
	survivor := []Candidate{all[1-first.Index]}
	d := p.Pick(PickInput{Key: key, Eligible: survivor})
	if d.AffinityHit || d.Index != 0 {
		t.Fatalf("pick with pinned instance cordoned = %+v, want miss on survivor", d)
	}
}

func TestAffinityTableEviction(t *testing.T) {
	p := newAffinityPolicy(2)
	in := func(fp uint64) PickInput {
		return PickInput{Key: AffinityKey{FpA: fp, FpB: fp}, Eligible: eligible(2)}
	}
	p.Pick(in(1))
	p.Pick(in(2))
	p.Pick(in(3)) // evicts fp 1 (least recently used)
	if got := p.Entries(); got != 2 {
		t.Fatalf("table holds %d entries, want capacity 2", got)
	}
	if d := p.Pick(in(1)); d.AffinityHit {
		t.Fatal("evicted structure still reported a hit")
	}
	if d := p.Pick(in(3)); !d.AffinityHit {
		t.Fatal("recent structure lost its pin")
	}
}

// TestPoliciesDeterministic drives each policy twice through an identical
// decision sequence and requires identical routing — replayed traffic must
// route identically run to run.
func TestPoliciesDeterministic(t *testing.T) {
	for _, name := range Policies() {
		run := func() []int {
			p, err := NewPolicy(name, PolicyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var out []int
			for i := range 20 {
				in := PickInput{
					Key:      AffinityKey{FpA: uint64(i % 5), FpB: uint64(i % 5)},
					Eligible: eligible(3),
				}
				in.Eligible[i%3].Outstanding = i % 4
				out = append(out, p.Pick(in).Index)
			}
			return out
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %q is nondeterministic: %v vs %v", name, a, b)
		}
	}
}
