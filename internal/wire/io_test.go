package wire

import "testing"

// TestBufPoolRetainLimit pins a pool's bound at the two limits in use, the
// submit buffers' (1 MiB) and the decision RPC's (64 KiB): a buffer grown
// past the limit does not stay in the pool, and one at the limit does.
func TestBufPoolRetainLimit(t *testing.T) {
	for _, limit := range []int{1 << 20, 64 << 10} {
		p := NewBufPool(limit)
		big := make([]byte, 0, limit+1)
		p.Put(&big)
		for i := 0; i < 64; i++ {
			if b := p.Get(); cap(*b) > limit {
				t.Fatalf("the pool handed back a %d-byte buffer, over the %d-byte retain limit", cap(*b), limit)
			}
		}
		// sync.Pool may drop any Put (the race detector drops some on
		// purpose), so a buffer at the limit is offered until one returns.
		kept := false
		for i := 0; i < 64 && !kept; i++ {
			b := make([]byte, 0, limit)
			p.Put(&b)
			kept = cap(*p.Get()) == limit
		}
		if !kept {
			t.Errorf("a %d-byte buffer, at the retain limit, never came back from the pool", limit)
		}
	}
}
