package ring

import (
	"fmt"
	"math"
	"testing"
)

// testKeys returns n distinct fingerprint-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i*2654435761)
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

func TestDeterministicPlacement(t *testing.T) {
	// Two rings built from the same member set — different input order,
	// with duplicates — must agree on every key. This is the property
	// that lets every daemon route independently: placement is a pure
	// function of the membership, not of construction history.
	a := New([]string{"s1", "s2", "s3"}, 64)
	b := New([]string{"s3", "s1", "s2", "s1"}, 64)
	for _, key := range testKeys(5000) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs between identically-membered rings: %q vs %q",
				key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestPlacementGolden(t *testing.T) {
	// Frozen key->owner pairs: placement must be stable across
	// processes, platforms, and releases, because every daemon in a
	// cluster computes it independently. If this test fails, the hash
	// or point layout changed and a rolling cluster would disagree on
	// ownership mid-deploy — change fingerprintVersion-style versioning
	// before shipping such a change.
	r := New([]string{"s1", "s2", "s3"}, 64)
	golden := map[string]string{
		"00000000000000000000000000000000": "s2",
		"deadbeefdeadbeefdeadbeefdeadbeef": "s1",
		"0123456789abcdef0123456789abcdef": "s3",
	}
	for key, want := range golden {
		if got := r.Owner(key); got != want {
			t.Errorf("Owner(%q) = %q, want frozen %q", key, got, want)
		}
	}
}

func TestJoinMovesBoundedKeys(t *testing.T) {
	// Adding one member to an N-member ring must move at most about
	// keys/(N+1) keys — the consistent-hashing contract — and every
	// moved key must move TO the new member.
	const n, keys, vnodes = 5, 20000, 128
	old := New(members(n), vnodes)
	grown := New(append(members(n), "shard-new"), vnodes)

	moved := 0
	for _, key := range testKeys(keys) {
		was, now := old.Owner(key), grown.Owner(key)
		if was == now {
			continue
		}
		moved++
		if now != "shard-new" {
			t.Fatalf("key %q moved %q -> %q, not to the joining member", key, was, now)
		}
	}
	// Expected movement is keys/(n+1); allow 50% slack for vnode
	// variance at 128 points per member.
	bound := int(float64(keys) / float64(n+1) * 1.5)
	if moved == 0 || moved > bound {
		t.Fatalf("join moved %d of %d keys, want (0, %d]", moved, keys, bound)
	}
}

func TestLeaveMovesOnlyOrphanedKeys(t *testing.T) {
	// Removing a member must not move any key that member did not own:
	// the survivors' caches stay valid.
	const n, keys, vnodes = 5, 20000, 128
	full := New(members(n), vnodes)
	shrunk := New(members(n)[:n-1], vnodes)
	removed := members(n)[n-1]

	orphaned, moved := 0, 0
	for _, key := range testKeys(keys) {
		was, now := full.Owner(key), shrunk.Owner(key)
		if was == removed {
			orphaned++
			if now == removed {
				t.Fatalf("key %q still owned by removed member", key)
			}
			continue
		}
		if was != now {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member moved anyway", moved)
	}
	bound := int(float64(keys) / float64(n) * 1.5)
	if orphaned == 0 || orphaned > bound {
		t.Fatalf("removed member owned %d of %d keys, want (0, %d]", orphaned, keys, bound)
	}
}

func TestReplicasDistinctAndOwnerFirst(t *testing.T) {
	r := New(members(4), 64)
	for _, key := range testKeys(500) {
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q, 3) = %v", key, reps)
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("replica[0] %q != owner %q", reps[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("duplicate replica %q in %v", m, reps)
			}
			seen[m] = true
		}
	}
	if got := r.Replicas("k", 99); len(got) != 4 {
		t.Fatalf("Replicas capped at member count: got %d members", len(got))
	}
	if r.Replicas("k", 0) != nil {
		t.Fatal("Replicas(k, 0) should be nil")
	}
}

func TestSharesSumToOneAndBalance(t *testing.T) {
	r := New(members(3), 256)
	shares := r.Shares()
	var sum float64
	for _, m := range r.Members() {
		s := shares[m]
		sum += s
		// At 256 vnodes each member should own within [0.5x, 1.5x] of
		// the fair 1/3 share.
		if s < 1.0/3/2 || s > 1.5/3*1.5 {
			t.Fatalf("member %s owns implausible share %.3f", m, s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestEmptyAndSingleRing(t *testing.T) {
	empty := New(nil, 64)
	if empty.Owner("k") != "" || empty.Replicas("k", 2) != nil || empty.Len() != 0 {
		t.Fatal("empty ring must return zero values")
	}
	if len(empty.Shares()) != 0 {
		t.Fatal("empty ring has no shares")
	}
	one := New([]string{"solo"}, 1)
	if one.Owner("k") != "solo" {
		t.Fatal("single-member ring owns everything")
	}
	if s := one.Shares(); math.Abs(s["solo"]-1) > 1e-9 {
		t.Fatalf("single-point share %v, want 1", s["solo"])
	}
}

func TestDefaultVnodes(t *testing.T) {
	r := New(members(2), 0)
	if got := len(r.points); got != 2*DefaultVnodes {
		t.Fatalf("vnodes<=0 built %d points, want %d", got, 2*DefaultVnodes)
	}
}
