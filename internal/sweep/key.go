package sweep

// Content-addressed scenario identity. A Scenario is hashed into a
// canonical key so that a result cache (internal/sweepcache) can reuse
// completed points across runs, shards and processes. Two scenarios share a
// key exactly when the engine is guaranteed to produce identical metrics
// for them: the key covers the topology *structure* (not its display
// name), every engine parameter, the fault spec and the workload spec —
// and nothing else. The display-only Topology.Name is deliberately
// excluded: it labels output rows but cannot change a single simulated
// bit.
//
// The key is versioned (keyVersion). Any change to engine semantics that
// keeps the Scenario type but alters results for the same field values
// must bump the version, which invalidates every cache entry at once.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"sync"

	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

// keyVersion tags the canonical encoding. Bump it whenever the engine's
// observable behavior for a fixed Scenario changes (new RNG consumption
// order, changed arbitration tie-breaks, metric redefinitions, ...).
const keyVersion = "otisnet-scenario-v2"

// fingerprints memoizes TopologyFingerprint per live topology value (all
// sim.Topology implementations are pointers, so interface identity is
// cheap and stable for the life of the process).
var fingerprints sync.Map // sim.Topology -> string

// TopologyFingerprint returns a hex SHA-256 of the topology's structure:
// node count, coupler count, every node's out-coupler list and every
// coupler's head list, in index order. Routing and distances are derived
// deterministically from exactly that structure (the construction-time
// scan oracles break ties in list order), so two topologies with equal
// fingerprints are simulation-equivalent. The fingerprint is memoized per
// topology value; it is computed from the pristine structure, so it must
// be taken from the base topology, never from a live fault wrapper.
func TopologyFingerprint(t sim.Topology) string {
	if fp, ok := fingerprints.Load(t); ok {
		return fp.(string)
	}
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	n, m := t.Nodes(), t.Couplers()
	writeInt(n)
	writeInt(m)
	for u := 0; u < n; u++ {
		out := t.OutCouplers(u)
		writeInt(len(out))
		for _, c := range out {
			writeInt(c)
		}
	}
	for c := 0; c < m; c++ {
		heads := t.Heads(c)
		writeInt(len(heads))
		for _, hd := range heads {
			writeInt(hd)
		}
	}
	fp := hex.EncodeToString(h.Sum(nil))
	fingerprints.Store(t, fp)
	return fp
}

// CacheKey returns the scenario's content-addressed key: a hex SHA-256 of
// the canonical encoding described above. Every scenario has one, because
// its traffic is always named by a workload.Spec.
func (s Scenario) CacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\ntopo %s\n", keyVersion, TopologyFingerprint(s.Topology.Topo))
	writeKeyFields(h, s)
	return hex.EncodeToString(h.Sum(nil))
}

// writeKeyFields streams the canonical parameter encoding into h. Fields
// are normalized first so that parameter spellings the engine cannot
// distinguish hash identically: Wavelengths 0 and 1 are the same engine,
// a fault spec with Count 0 is fault-free regardless of its other fields,
// workload parameters that the selected kind ignores are zeroed, and the
// rate normalizes to 1 where the generator would treat it so (event
// traces replay verbatim at any rate; rate traces treat a scale <= 0 as
// 1).
func writeKeyFields(h hash.Hash, s Scenario) {
	waves := s.Wavelengths
	if waves < 1 {
		waves = 1
	}
	rate := s.Rate
	if s.Workload.Kind == workload.KindTrace &&
		(s.Workload.TraceForm == workload.TraceEvents || rate <= 0) {
		rate = 1
	}
	fmt.Fprintf(h, "rate %s\nseed %d\nmode %d\nwavelengths %d\nmaxqueue %d\nslots %d\ndrain %d\n",
		canonFloat(rate), s.Seed, s.Mode, waves, s.MaxQueue, s.Slots, s.Drain)

	f := s.Fault
	if f.IsZero() {
		fmt.Fprint(h, "fault none\n")
	} else if f.MTBF > 0 && f.MTTR > 0 {
		fmt.Fprintf(h, "fault stochastic %d %d %s %s %d %d\n",
			f.Kind, f.Count, canonFloat(f.MTBF), canonFloat(f.MTTR), f.Horizon, f.Seed)
	} else {
		fmt.Fprintf(h, "fault oneshot %d %d %d %d\n", f.Kind, f.Count, f.Slot, f.Seed)
	}

	w := s.Workload
	switch w.Kind {
	case workload.KindTranspose: // parameterless beyond the topology's group size
		fmt.Fprintf(h, "workload transpose %d\n", s.Topology.GroupSize)
	case workload.KindHotspot: // group-structured
		fmt.Fprintf(h, "workload hotspot %d %d %s\n",
			s.Topology.GroupSize, w.HotGroup, canonFloat(w.Fraction))
	case workload.KindBursty: // ignores group structure
		fmt.Fprintf(h, "workload bursty %s %s %s\n",
			canonFloat(w.MeanOn), canonFloat(w.MeanOff), canonFloat(w.OffFactor))
	case workload.KindTrace:
		// Content-addressed: the fingerprint of the trace bytes, never the
		// path, so renaming or relocating a trace is a warm cache hit while
		// editing one record recomputes every affected point.
		fmt.Fprintf(h, "workload trace %d %s\n", w.TraceForm, w.TraceFP)
	case workload.KindMultiPeriod: // ignores group structure
		fmt.Fprintf(h, "workload multiperiod %d %s %s %s %s %s %s %s\n",
			w.Period, canonFloat(w.Amplitude),
			canonFloat(w.EpisodeOn), canonFloat(w.EpisodeOff),
			canonFloat(w.MeanOn), canonFloat(w.MeanOff),
			canonFloat(w.RateSigma), canonFloat(w.OffFactor))
	default: // uniform — ignores every parameter
		fmt.Fprint(h, "workload uniform\n")
	}
}

// canonFloat renders a float canonically: the shortest representation that
// round-trips (strconv 'g' with precision -1), so 0.30000000000000004 and
// 0.3 stay distinct but formatting can never drift between writers.
func canonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
