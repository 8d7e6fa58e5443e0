package sim

// DeferAllHeads makes every engine and replica set attached until restore
// is called defer its head-of-line route lookups (see markHead), whatever
// its route-table size, so the differential tests can drive small
// topologies through the large-table path.
func DeferAllHeads() (restore func()) {
	old := deferHeadsMinEntries
	deferHeadsMinEntries = 0
	return func() { deferHeadsMinEntries = old }
}

// DefersHeads reports whether the engine defers its head lookups.
func (e *Engine) DefersHeads() bool { return e.deferHeads }
