package sim_test

// Differential testing of the sharded parallel step against the serial
// engine. The serial replica core is itself fuzzed against the frozen
// legacy engine (FuzzCompiledVsLegacyEngine), so serial Step is the
// oracle here: for every scenario the parallel engine — forced through
// the sharded path on every slot via a zero engagement threshold — must
// produce identical Metrics and an identical OnDeliver event stream.
// The table test pins one scenario per engine mode (store-and-forward,
// deflection, multi-wavelength, bounded queues, faults mid-run, and the
// empty-shard regime where P exceeds the coupler count); the fuzz target
// lets the fuzzer pick everything, including the shard count.

import (
	"fmt"
	"math/rand"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/kautz"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// runLockstep drives serial and parallel engines through one shared
// injection schedule and compares Metrics and deliveries at the end.
func runLockstep(t *testing.T, label string, topoS, topoP sim.Topology, cfg sim.Config,
	tr sim.Traffic, slots, drain, shards int) {
	t.Helper()
	n := topoS.Nodes()
	eS := sim.NewEngine(topoS, cfg)
	eP := sim.NewEngine(topoP, cfg)
	defer eP.Close()
	eP.SetParallel(shards)
	eP.SetParallelThreshold(0)
	if eP.Parallel() != shards {
		t.Fatalf("%s: armed %d shards, want %d", label, eP.Parallel(), shards)
	}
	var gotS, gotP []delivery
	eS.OnDeliver = func(m sim.Message, slot int) {
		gotS = append(gotS, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
	}
	eP.OnDeliver = func(m sim.Message, slot int) {
		gotP = append(gotP, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var buf []sim.Injection
	for s := 0; s < slots; s++ {
		buf = tr.Generate(buf[:0], s, n, rng)
		for _, inj := range buf {
			eS.Inject(inj.Src, inj.Dst)
			eP.Inject(inj.Src, inj.Dst)
		}
		eS.Step()
		eP.Step()
	}
	for s := 0; s < drain && (eS.Backlog() > 0 || eP.Backlog() > 0); s++ {
		eS.Step()
		eP.Step()
	}
	if mS, mP := eS.Metrics(), eP.Metrics(); mS != mP {
		t.Fatalf("%s: metrics diverged\nserial   %v\nparallel %v", label, mS, mP)
	}
	if len(gotS) != len(gotP) {
		t.Fatalf("%s: %d deliveries serial vs %d parallel", label, len(gotS), len(gotP))
	}
	for i := range gotS {
		if gotS[i] != gotP[i] {
			t.Fatalf("%s: delivery %d = %+v serial, %+v parallel", label, i, gotS[i], gotP[i])
		}
	}
}

func TestParallelMatchesSerialStep(t *testing.T) {
	sk := func() sim.Topology { return sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()) }
	db := func() sim.Topology { return sim.NewPointToPointTopology(kautz.NewDeBruijn(2, 4).Digraph()) }
	cases := []struct {
		name   string
		topo   func() sim.Topology
		cfg    sim.Config
		rate   float64
		shards int
	}{
		{"store-and-forward", sk, sim.Config{Seed: 1}, 0.4, 4},
		{"deflection-storm", sk, sim.Config{Seed: 2, Deflection: true}, 0.95, 4},
		{"bounded-queues", sk, sim.Config{Seed: 3, MaxQueue: 2}, 0.8, 3},
		{"multi-wavelength", sk, sim.Config{Seed: 4, Wavelengths: 3}, 0.9, 4},
		{"wdm-deflection", sk, sim.Config{Seed: 5, Wavelengths: 2, Deflection: true, MaxQueue: 3}, 0.9, 5},
		{"point-to-point", db, sim.Config{Seed: 6}, 0.6, 4},
		{"empty-shards", db, sim.Config{Seed: 7, Deflection: true}, 0.7, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runLockstep(t, tc.name, tc.topo(), tc.topo(), tc.cfg,
				sim.UniformTraffic{Rate: tc.rate}, 120, 400, tc.shards)
		})
	}
}

// TestParallelMatchesSerialUnderFaults exercises the deferred-drop path:
// mid-run fault events strand queued traffic and cut routes, so phase A
// must replicate the serial drop-until-routable loop exactly.
func TestParallelMatchesSerialUnderFaults(t *testing.T) {
	base := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	for _, kind := range []faults.Kind{faults.KindNode, faults.KindCoupler, faults.KindTransmitter} {
		for _, defl := range []bool{false, true} {
			name := fmt.Sprintf("%v-defl=%v", kind, defl)
			t.Run(name, func(t *testing.T) {
				plan := faults.Random(kind, 2, 40, base, 11)
				cfg := sim.Config{Seed: 11, Deflection: defl, MaxQueue: 4}
				runLockstep(t, name, faults.Wrap(base, plan), faults.Wrap(base, plan), cfg,
					sim.UniformTraffic{Rate: 0.6}, 120, 400, 4)
			})
		}
	}
}

// TestReplicaSetParallelMatchesSerial pins the replica-level fan-out:
// a parallel-armed set must retire every replica with exactly the
// metrics of the serial set (replicas are independent; only the
// stepping schedule changes).
func TestReplicaSetParallelMatchesSerial(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	specs := make([]sim.ReplicaSpec, 7)
	for i := range specs {
		specs[i] = sim.ReplicaSpec{
			Config:      sim.Config{Seed: int64(i + 1), Deflection: i%2 == 1, MaxQueue: i % 3},
			Traffic:     sim.UniformTraffic{Rate: 0.3 + 0.1*float64(i%4)},
			Slots:       100 + 20*i,
			Drain:       300,
			StreamGroup: -1,
		}
	}
	serial := sim.NewReplicaSet(topo)
	serial.Configure(specs)
	serial.RunAll()
	parallel := sim.NewReplicaSet(topo)
	defer parallel.Close()
	parallel.SetParallel(4)
	parallel.Configure(specs)
	parallel.RunAll()
	for i := range specs {
		if mS, mP := serial.Metrics(i), parallel.Metrics(i); mS != mP {
			t.Fatalf("replica %d diverged\nserial   %v\nparallel %v", i, mS, mP)
		}
	}
}

// FuzzParallelVsSerialStep is the parallel-step oracle fuzz: the fuzzer
// picks the topology family, traffic model, load, engine configuration,
// fault plan and shard count; every generated scenario must produce
// identical Metrics and an identical OnDeliver stream from the serial
// engine and a parallel engine forced through the sharded path on every
// slot. The 12-entry seed corpus covers faults mid-run, W > 1,
// deflection storms and the empty-shard regime at tiny N.
func FuzzParallelVsSerialStep(f *testing.F) {
	// Tuple order: (topoSel, pa, pb, trafficSel, ratePct, waves, maxq,
	// faultKind, faultCount, slotsRaw, faultSlotRaw, seed, defl, shards)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(30), uint8(1), uint8(0), uint8(0), uint8(0), uint16(150), uint16(0), int64(1), false, uint8(2))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(60), uint8(1), uint8(3), uint8(0), uint8(2), uint16(200), uint16(40), int64(2), false, uint8(4))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(2), uint8(45), uint8(2), uint8(0), uint8(1), uint8(1), uint16(120), uint16(25), int64(3), true, uint8(3))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(3), uint8(80), uint8(3), uint8(2), uint8(2), uint8(2), uint16(90), uint16(10), int64(4), false, uint8(8))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(0), uint8(95), uint8(1), uint8(1), uint8(0), uint8(1), uint16(250), uint16(200), int64(5), true, uint8(6))

	f.Fuzz(func(t *testing.T, topoSel, pa, pb, trafficSel, ratePct, waves, maxq, faultKind, faultCount uint8,
		slotsRaw, faultSlotRaw uint16, seed int64, defl bool, shards uint8) {
		base, family := fuzzTopology(topoSel, pa, pb)
		if err := sim.CheckTopology(base); err != nil {
			t.Skipf("degenerate topology: %v", err)
		}
		n := base.Nodes()
		rate := 0.05 + float64(ratePct%90)/100
		slots := 50 + int(slotsRaw)%200
		drain := 400
		p := 2 + int(shards)%15
		cfg := sim.Config{
			Seed:        seed,
			MaxQueue:    int(maxq) % 5,
			Deflection:  defl,
			Wavelengths: 1 + int(waves)%3,
		}

		topoS, topoP := base, base
		if count := int(faultCount) % 3; count > 0 {
			kinds := []faults.Kind{faults.KindNode, faults.KindCoupler, faults.KindTransmitter}
			plan := faults.Random(kinds[int(faultKind)%3], count, int(faultSlotRaw)%slots, base, seed)
			topoS = faults.Wrap(base, plan)
			topoP = faults.Wrap(base, plan)
		}

		// Odd seeds run the parallel engine with deferred head lookups,
		// so stale heads marked in the sharded phases are covered too.
		eS := sim.NewEngine(topoS, cfg)
		restore := func() {}
		if seed%2 != 0 {
			restore = sim.DeferAllHeads()
		}
		eP := sim.NewEngine(topoP, cfg)
		restore()
		defer eP.Close()
		eP.SetParallel(p)
		eP.SetParallelThreshold(0)
		var gotS, gotP []delivery
		eS.OnDeliver = func(m sim.Message, slot int) {
			gotS = append(gotS, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
		}
		eP.OnDeliver = func(m sim.Message, slot int) {
			gotP = append(gotP, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
		}

		tr := fuzzTraffic(trafficSel, rate, n, seed)
		rng := rand.New(rand.NewSource(seed))
		var buf []sim.Injection
		for s := 0; s < slots; s++ {
			buf = tr.Generate(buf[:0], s, n, rng)
			for _, inj := range buf {
				eS.Inject(inj.Src, inj.Dst)
				eP.Inject(inj.Src, inj.Dst)
			}
			eS.Step()
			eP.Step()
		}
		for s := 0; s < drain && (eS.Backlog() > 0 || eP.Backlog() > 0); s++ {
			eS.Step()
			eP.Step()
		}

		if mS, mP := eS.Metrics(), eP.Metrics(); mS != mP {
			t.Fatalf("%s n=%d p=%d cfg=%+v traffic=%d faults=%d: metrics diverged\nserial   %v\nparallel %v",
				family, n, p, cfg, trafficSel%4, faultCount%3, mS, mP)
		}
		if len(gotS) != len(gotP) {
			t.Fatalf("%s p=%d: %d deliveries serial vs %d parallel", family, p, len(gotS), len(gotP))
		}
		for i := range gotS {
			if gotS[i] != gotP[i] {
				t.Fatalf("%s p=%d: delivery %d = %+v serial, %+v parallel", family, p, i, gotS[i], gotP[i])
			}
		}
	})
}

// TestSetParallelAutoIsSerial pins that SetParallel(p <= 0), the
// -parallel 0 default, leaves an engine on the serial path.
func TestSetParallelAutoIsSerial(t *testing.T) {
	e := sim.NewEngine(sim.NewStackTopology(stackkautz.New(2, 2, 2).StackGraph()), sim.Config{Seed: 1})
	defer e.Close()
	for _, p := range []int{0, -3} {
		e.SetParallel(p)
		if got := e.Parallel(); got != 1 {
			t.Fatalf("SetParallel(%d): Parallel() = %d, want 1 (serial)", p, got)
		}
	}
	e.SetParallel(2)
	if got := e.Parallel(); got != 2 {
		t.Fatalf("SetParallel(2): Parallel() = %d, want 2", got)
	}
	e.SetParallel(0)
	if got := e.Parallel(); got != 1 {
		t.Fatalf("SetParallel(0) after 2: Parallel() = %d, want 1", got)
	}
}
