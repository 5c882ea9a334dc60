package main

import (
	"testing"
	"time"
)

// TestCheckLease pins -lease-ttl validation: zero disables the lease, a
// positive TTL needs a replication surface (a -data-dir primary, or a
// follower), and a negative TTL is refused instead of silently dropping
// the split-brain guard.
func TestCheckLease(t *testing.T) {
	for _, tc := range []struct {
		ttl      time.Duration
		follower bool
		dataDir  string
		ok       bool
	}{
		{0, false, "", true},
		{time.Second, false, "/data", true},
		{time.Second, true, "", true},
		{time.Second, false, "", false},
		{-time.Second, false, "/data", false},
		{-time.Second, true, "", false},
	} {
		if err := checkLease(tc.ttl, tc.follower, tc.dataDir); (err == nil) != tc.ok {
			t.Errorf("checkLease(%s, follower=%v, data-dir=%q) = %v, want ok=%v", tc.ttl, tc.follower, tc.dataDir, err, tc.ok)
		}
	}
}
