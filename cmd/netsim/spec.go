package main

// Workload flag handling, extracted from main so every error path returns
// a testable (value, error) pair instead of exiting inline. Two invariants
// hold:
//
//   - an explicitly-set workload flag that the selected model cannot
//     honor is an error, never silently ignored;
//   - hotspot group indices are validated by sign only: workload.Hotspot
//     documents modulo-group semantics, so any non-negative index is
//     valid on every topology of a mixed-scale sweep, and no check may
//     privilege the first topology's group count.

import (
	"fmt"
	"strings"

	"otisnet/internal/workload"
)

// workloadFlags carries every workload-family flag value plus the set of
// flag names the user spelled explicitly (flag.Visit), which drives the
// cannot-honor checks.
type workloadFlags struct {
	HotGroup                                    int
	HotFrac                                     float64
	BurstOn, BurstOff, BurstLow                 float64
	TraceFile                                   string
	Period                                      int
	Amplitude, EpisodeOn, EpisodeOff, RateSigma float64
	Explicit                                    map[string]bool
}

// workloadFlagHonor lists, in reporting order, each workload-family flag
// and the kinds that honor it.
var workloadFlagHonor = []struct {
	flag  string
	kinds []workload.Kind
}{
	{"hotgroup", []workload.Kind{workload.KindHotspot}},
	{"hotfrac", []workload.Kind{workload.KindHotspot}},
	{"burston", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"burstoff", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"burstlow", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"tracefile", []workload.Kind{workload.KindTrace}},
	{"period", []workload.Kind{workload.KindMultiPeriod}},
	{"amplitude", []workload.Kind{workload.KindMultiPeriod}},
	{"episodeon", []workload.Kind{workload.KindMultiPeriod}},
	{"episodeoff", []workload.Kind{workload.KindMultiPeriod}},
	{"ratesigma", []workload.Kind{workload.KindMultiPeriod}},
}

// spec builds and validates the workload.Spec for one kind name. Note the
// hotspot case: the group index is range-checked by Spec.Validate (>= 0
// only — it wraps modulo each topology's group count), never against any
// particular topology.
func (wf workloadFlags) spec(kind string) (workload.Spec, error) {
	k, err := workload.ParseKind(kind)
	if err != nil {
		return workload.Spec{}, err
	}
	var s workload.Spec
	switch k {
	case workload.KindHotspot:
		s = workload.Spec{Kind: k, HotGroup: wf.HotGroup, Fraction: wf.HotFrac}
	case workload.KindBursty:
		s = workload.Spec{Kind: k, MeanOn: wf.BurstOn, MeanOff: wf.BurstOff, OffFactor: wf.BurstLow}
	case workload.KindTrace:
		if wf.TraceFile == "" {
			return workload.Spec{}, fmt.Errorf("the trace workload needs -tracefile")
		}
		return workload.NewTraceSpec(wf.TraceFile)
	case workload.KindMultiPeriod:
		// The flicker and floor reuse the bursty flags (-burston/-burstoff/
		// -burstlow): multiperiod is bursts-of-bursts, with the episode
		// layer on top.
		s = workload.Spec{
			Kind: k, Period: wf.Period, Amplitude: wf.Amplitude,
			EpisodeOn: wf.EpisodeOn, EpisodeOff: wf.EpisodeOff,
			MeanOn: wf.BurstOn, MeanOff: wf.BurstOff,
			RateSigma: wf.RateSigma, OffFactor: wf.BurstLow,
		}
	default:
		s = workload.Spec{Kind: k}
	}
	return s, s.Validate()
}

// specs parses the -workload comma list and then rejects any explicitly
// set workload flag that no selected kind honors.
func (wf workloadFlags) specs(list string) ([]workload.Spec, error) {
	var out []workload.Spec
	kinds := map[workload.Kind]bool{}
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		s, err := wf.spec(w)
		if err != nil {
			return nil, err
		}
		kinds[s.Kind] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workload names no workloads")
	}
	for _, fk := range workloadFlagHonor {
		if !wf.Explicit[fk.flag] {
			continue
		}
		honored := false
		names := make([]string, len(fk.kinds))
		for i, k := range fk.kinds {
			honored = honored || kinds[k]
			names[i] = k.String()
		}
		if !honored {
			return nil, fmt.Errorf("-%s applies to the %s workload; none of the selected workloads honor it",
				fk.flag, strings.Join(names, "/"))
		}
	}
	return out, nil
}

// traceRateOverride applies the trace workloads' rate-axis rules: event
// traces replay verbatim, so an explicit rate axis cannot be honored and
// mixing them with rate-driven workloads would make the rate column lie;
// and any trace workload defaults the rate axis to 1 (replay/scale as
// recorded) instead of the uniform-load default. The returned force flag
// tells the caller to pin the axis to the single rate 1.
func traceRateOverride(specs []workload.Spec, rateExplicit bool) (force bool, err error) {
	hasEvent, hasTrace, hasOther := false, false, false
	for _, s := range specs {
		switch {
		case s.Kind == workload.KindTrace && s.TraceForm == workload.TraceEvents:
			hasEvent = true
			hasTrace = true
		case s.Kind == workload.KindTrace:
			hasTrace = true
			hasOther = true // rate traces honor the axis as a scale factor
		default:
			hasOther = true
		}
	}
	if hasEvent {
		if rateExplicit {
			return false, fmt.Errorf("event-form traces replay verbatim; drop -rate/-rates (or use a rates-form trace to scale)")
		}
		if hasOther {
			return false, fmt.Errorf("event-form trace workloads cannot share a sweep with rate-driven workloads (the rate axis applies to all)")
		}
	}
	return hasTrace && !rateExplicit, nil
}
