package workload

import (
	"fmt"
	"path/filepath"

	"otisnet/internal/sim"
)

// Kind enumerates the sweepable workload families.
type Kind int

const (
	// KindUniform is the uniform random load, sim.UniformTraffic (the zero
	// value, so a zero Spec reproduces pre-workload sweeps bit for bit).
	KindUniform Kind = iota
	// KindTranspose is the fixed OTIS transpose permutation pattern.
	KindTranspose
	// KindHotspot skews a fraction of the load toward one group.
	KindHotspot
	// KindBursty modulates uniform load with a two-state on/off process.
	KindBursty
	// KindTrace replays an empirical trace file (see Trace / ScanTrace).
	KindTrace
	// KindMultiPeriod samples an empirical multi-period rate process
	// (diurnal ramp × episodes × bursts-of-bursts; see MultiPeriod).
	KindMultiPeriod
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTranspose:
		return "transpose"
	case KindHotspot:
		return "hotspot"
	case KindBursty:
		return "bursty"
	case KindTrace:
		return "trace"
	case KindMultiPeriod:
		return "multiperiod"
	default:
		return "uniform"
	}
}

// ParseKind maps a CLI/workload name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "uniform":
		return KindUniform, nil
	case "transpose":
		return KindTranspose, nil
	case "hotspot":
		return KindHotspot, nil
	case "bursty":
		return KindBursty, nil
	case "trace":
		return KindTrace, nil
	case "multiperiod":
		return KindMultiPeriod, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q (want uniform, transpose, hotspot, bursty, trace or multiperiod)", s)
}

// Spec is a compact, comparable description of a workload, designed to be a
// sweep-grid axis next to load, mode, wavelengths and faults: it defers
// materializing the generator (which needs the concrete node count, group
// size and offered rate) until the scenario runs. The zero Spec is the
// uniform workload, so sweeps without a workload axis are unchanged.
type Spec struct {
	Kind Kind
	// HotGroup and Fraction parameterize KindHotspot.
	HotGroup int
	Fraction float64
	// MeanOn and MeanOff are the mean burst durations of KindBursty, in
	// slots; OffFactor scales the offered rate in the off state (0 = silent
	// gaps, 1 = no modulation). KindMultiPeriod reuses them as its inner
	// flicker means and inter-episode floor factor.
	MeanOn, MeanOff float64
	OffFactor       float64
	// TracePath, TraceFP and TraceForm parameterize KindTrace. TraceFP is
	// the hex SHA-256 of the trace file's raw bytes (the content address —
	// it, not the path, enters cache keys), TraceForm the record form, both
	// taken by ScanTrace; build trace specs through NewTraceSpec so they
	// are always populated from a validated file.
	TracePath string
	TraceFP   string
	TraceForm TraceForm
	// Period, Amplitude, EpisodeOn, EpisodeOff and RateSigma parameterize
	// KindMultiPeriod (see the MultiPeriod field docs).
	Period                int
	Amplitude             float64
	EpisodeOn, EpisodeOff float64
	RateSigma             float64
}

// IsZero reports whether the spec is the default uniform workload.
func (s Spec) IsZero() bool { return s == Spec{} }

// Label is the human- and CSV-facing workload identifier.
func (s Spec) Label() string {
	switch s.Kind {
	case KindTranspose:
		return "transpose"
	case KindHotspot:
		return fmt.Sprintf("hotspot(g%d,%g)", s.HotGroup, s.Fraction)
	case KindBursty:
		return fmt.Sprintf("bursty(%g/%g,%g)", s.MeanOn, s.MeanOff, s.OffFactor)
	case KindTrace:
		fp := s.TraceFP
		if len(fp) > 8 {
			fp = fp[:8]
		}
		return fmt.Sprintf("trace(%s@%s;%s)", filepath.Base(s.TracePath), fp, s.TraceForm)
	case KindMultiPeriod:
		return fmt.Sprintf("multiperiod(p%d;a%g;ep%g/%g;fl%g/%g;s%g;lo%g)",
			s.Period, s.Amplitude, s.EpisodeOn, s.EpisodeOff, s.MeanOn, s.MeanOff, s.RateSigma, s.OffFactor)
	default:
		return "uniform"
	}
}

// New materializes the generator for a network of n nodes arranged as
// groups of groupSize (0 or 1 when the topology has no group structure),
// injecting at the given per-node rate. Each call returns an independent
// generator, safe for one concurrent scenario each (KindBursty is
// stateful).
//
// Because generation state lives here — never in the engine — a batched
// run (sim.ReplicaSet) can drive one generator per stream group rather
// than per replica: scenarios with equal Spec, rate, seed and slot count
// consume bit-for-bit the same schedule, so the batch draws it once and
// fans the injections to every member. A spec's generator scratch
// (KindBursty's on/off phase) is then per group, armed fresh by each
// sweep batch exactly as a solo run arms it per scenario.
func (s Spec) New(rate float64, n, groupSize int) sim.Traffic {
	switch s.Kind {
	case KindTranspose:
		return NewTranspose(rate, n, groupSize)
	case KindHotspot:
		return Hotspot{Rate: rate, Group: s.HotGroup, GroupSize: groupSize, Fraction: s.Fraction}
	case KindBursty:
		return &Bursty{OnRate: rate, OffRate: s.OffFactor * rate, MeanOn: s.MeanOn, MeanOff: s.MeanOff}
	case KindTrace:
		// Event traces replay verbatim (rate is not consulted); for rate
		// traces the sweep's rate axis scales the recorded schedule.
		return &Trace{Path: s.TracePath, Form: s.TraceForm, Scale: rate}
	case KindMultiPeriod:
		return &MultiPeriod{
			BaseRate: rate,
			Period:   s.Period, Amplitude: s.Amplitude,
			EpisodeOn: s.EpisodeOn, EpisodeOff: s.EpisodeOff,
			MeanOn: s.MeanOn, MeanOff: s.MeanOff,
			RateSigma: s.RateSigma, FloorFactor: s.OffFactor,
		}
	default:
		return sim.UniformTraffic{Rate: rate}
	}
}

// NewTraceSpec scans (validates + fingerprints) the trace file at path
// and returns its KindTrace spec. This is the front door for trace
// workloads: every layer that accepts a trace (CLI flags, GridSpec)
// funnels through it, so a Spec with KindTrace always describes a file
// that parsed cleanly at spec time.
func NewTraceSpec(path string) (Spec, error) {
	info, err := ScanTrace(path)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Kind: KindTrace, TracePath: path, TraceFP: info.Fingerprint, TraceForm: info.Form}, nil
}

// Validate checks the parameter ranges of the spec's kind. Parameters
// belonging to other kinds are not inspected (the cache key zeroes them
// anyway); callers building specs from user input should zero them.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindHotspot:
		if s.HotGroup < 0 {
			return fmt.Errorf("workload: hotspot group %d is negative (indices wrap modulo each topology's group count, but must be >= 0)", s.HotGroup)
		}
		if s.Fraction < 0 || s.Fraction > 1 {
			return fmt.Errorf("workload: hotspot fraction %g outside [0,1]", s.Fraction)
		}
	case KindBursty:
		if s.MeanOn < 1 || s.MeanOff < 1 {
			return fmt.Errorf("workload: bursty mean durations %g/%g must be >= 1 slot", s.MeanOn, s.MeanOff)
		}
		if s.OffFactor < 0 || s.OffFactor > 1 {
			return fmt.Errorf("workload: bursty off factor %g outside [0,1]", s.OffFactor)
		}
	case KindTrace:
		if s.TracePath == "" || s.TraceFP == "" || (s.TraceForm != TraceEvents && s.TraceForm != TraceRates) {
			return fmt.Errorf("workload: trace spec not built from a scanned file (use NewTraceSpec)")
		}
	case KindMultiPeriod:
		if s.Period < 0 {
			return fmt.Errorf("workload: multiperiod period %d is negative", s.Period)
		}
		if s.Amplitude < 0 || s.Amplitude > 1 {
			return fmt.Errorf("workload: multiperiod amplitude %g outside [0,1]", s.Amplitude)
		}
		if s.EpisodeOn < 1 || s.EpisodeOff < 1 {
			return fmt.Errorf("workload: multiperiod episode means %g/%g must be >= 1 slot", s.EpisodeOn, s.EpisodeOff)
		}
		if s.MeanOn < 1 || s.MeanOff < 1 {
			return fmt.Errorf("workload: multiperiod flicker means %g/%g must be >= 1 slot", s.MeanOn, s.MeanOff)
		}
		if s.RateSigma < 0 {
			return fmt.Errorf("workload: multiperiod rate sigma %g is negative", s.RateSigma)
		}
		if s.OffFactor < 0 || s.OffFactor > 1 {
			return fmt.Errorf("workload: multiperiod floor factor %g outside [0,1]", s.OffFactor)
		}
	}
	return nil
}
