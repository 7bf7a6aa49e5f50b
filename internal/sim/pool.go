package sim

// Pool is a minimal free list for simulation objects that churn on the hot
// path (MAC jobs, PHY arrivals/receptions, response state). Get returns a
// zeroed *T — recycled or freshly allocated — and Put zeroes the object
// before storing it, so pooled structs never pin frames or packets for the
// garbage collector and a recycled object can never leak state into its
// next life. Not safe for concurrent use, like everything else in sim.
//
// The scheduler's event free list intentionally does not use Pool: freed
// events carry a sentinel sequence number (not the zero value) to make
// stale TaskHandles provably invalid.
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed object, reusing a recycled one when available.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	return new(T)
}

// Put zeroes the object and stores it for reuse. The caller must not
// retain the pointer.
func (p *Pool[T]) Put(v *T) {
	var zero T
	*v = zero
	p.free = append(p.free, v)
}

// Len reports the number of pooled objects (tests/stats).
func (p *Pool[T]) Len() int { return len(p.free) }
