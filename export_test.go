package disclosure

// FencedBy exposes to the external tests the fencing epoch a replica's
// applied records carry (production code has no use for it: a follower is
// never served by a fenced node).
func (r *Replica) FencedBy() uint64 { return r.fencedBy.Load() }
