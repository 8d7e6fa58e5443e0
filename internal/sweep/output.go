package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// WriteResultsCSV emits one row per raw scenario result.
func WriteResultsCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	header := []string{
		"topology", "traffic", "workload", "rate", "mode", "wavelengths", "fault", "seed",
		"slots", "injected", "delivered", "dropped", "backlog",
		"throughput", "per_node_throughput", "avg_latency", "avg_hops",
		"peak_queue", "deflections",
		"unroutable", "lost_to_faults", "reroutes", "recovery_slots",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		s, m := r.Scenario, r.Metrics
		row := []string{
			s.Topology.Name,
			s.Workload.Label(),
			s.Workload.Label(),
			fmt.Sprintf("%g", s.Rate),
			s.Mode.String(),
			fmt.Sprintf("%d", s.Wavelengths),
			s.Fault.Label(),
			fmt.Sprintf("%d", s.Seed),
			fmt.Sprintf("%d", m.Slots),
			fmt.Sprintf("%d", m.Injected),
			fmt.Sprintf("%d", m.Delivered),
			fmt.Sprintf("%d", m.Dropped),
			fmt.Sprintf("%d", m.Backlog),
			fmt.Sprintf("%g", m.Throughput()),
			fmt.Sprintf("%g", m.Throughput()/float64(s.Topology.Topo.Nodes())),
			fmt.Sprintf("%g", m.AvgLatency()),
			fmt.Sprintf("%g", m.AvgHops()),
			fmt.Sprintf("%d", m.PeakQueue),
			fmt.Sprintf("%d", m.Deflections),
			fmt.Sprintf("%d", m.Unroutable),
			fmt.Sprintf("%d", m.LostToFaults),
			fmt.Sprintf("%d", m.Reroutes),
			fmt.Sprintf("%d", m.RecoverySlots),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCurveCSV emits one row per aggregated curve point.
func WriteCurveCSV(w io.Writer, points []CurvePoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"topology", "traffic", "workload", "rate", "mode", "wavelengths", "fault", "seeds",
		"throughput_mean", "throughput_std",
		"per_node_throughput_mean", "per_node_throughput_std",
		"latency_mean", "latency_std",
		"hops_mean", "hops_std",
		"delivered_frac_mean", "delivered_frac_std",
		"unroutable_mean", "lost_to_faults_mean", "recovery_slots_mean",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		row := []string{
			p.Topology,
			p.Workload.Label(),
			p.Workload.Label(),
			fmt.Sprintf("%g", p.Rate),
			p.Mode.String(),
			fmt.Sprintf("%d", p.Wavelengths),
			p.Fault.Label(),
			fmt.Sprintf("%d", p.Seeds),
			fmt.Sprintf("%g", p.Throughput.Mean),
			fmt.Sprintf("%g", p.Throughput.Std),
			fmt.Sprintf("%g", p.PerNodeThr.Mean),
			fmt.Sprintf("%g", p.PerNodeThr.Std),
			fmt.Sprintf("%g", p.Latency.Mean),
			fmt.Sprintf("%g", p.Latency.Std),
			fmt.Sprintf("%g", p.Hops.Mean),
			fmt.Sprintf("%g", p.Hops.Std),
			fmt.Sprintf("%g", p.DeliveredFrac.Mean),
			fmt.Sprintf("%g", p.DeliveredFrac.Std),
			fmt.Sprintf("%g", p.Unroutable.Mean),
			fmt.Sprintf("%g", p.LostToFaults.Mean),
			fmt.Sprintf("%g", p.RecoverySlots.Mean),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Record is the flat JSON shape of one result (topologies are not
// serializable, so the scenario is flattened to its identifying fields).
// It is the row format of WriteResultsJSON and of the sweep service's
// NDJSON result stream (internal/sweepserver).
type Record struct {
	Topology    string  `json:"topology"`
	Traffic     string  `json:"traffic"`
	Workload    string  `json:"workload"`
	Rate        float64 `json:"rate"`
	Mode        string  `json:"mode"`
	Wavelengths int     `json:"wavelengths"`
	Fault       string  `json:"fault"`
	Seed        int64   `json:"seed"`
	Slots       int     `json:"slots"`
	Injected    int     `json:"injected"`
	Delivered   int     `json:"delivered"`
	Dropped     int     `json:"dropped"`
	Backlog     int     `json:"backlog"`
	Throughput  float64 `json:"throughput"`
	AvgLatency  float64 `json:"avg_latency"`
	AvgHops     float64 `json:"avg_hops"`
	PeakQueue   int     `json:"peak_queue"`
	Deflections int     `json:"deflections"`

	Unroutable    int `json:"unroutable"`
	LostToFaults  int `json:"lost_to_faults"`
	Reroutes      int `json:"reroutes"`
	RecoverySlots int `json:"recovery_slots"`
}

// NewRecord flattens one result into its row form.
func NewRecord(r Result) Record {
	s, m := r.Scenario, r.Metrics
	return Record{
		Topology:      s.Topology.Name,
		Traffic:       s.Workload.Label(),
		Workload:      s.Workload.Label(),
		Rate:          s.Rate,
		Mode:          s.Mode.String(),
		Wavelengths:   s.Wavelengths,
		Fault:         s.Fault.Label(),
		Seed:          s.Seed,
		Slots:         m.Slots,
		Injected:      m.Injected,
		Delivered:     m.Delivered,
		Dropped:       m.Dropped,
		Backlog:       m.Backlog,
		Throughput:    m.Throughput(),
		AvgLatency:    m.AvgLatency(),
		AvgHops:       m.AvgHops(),
		PeakQueue:     m.PeakQueue,
		Deflections:   m.Deflections,
		Unroutable:    m.Unroutable,
		LostToFaults:  m.LostToFaults,
		Reroutes:      m.Reroutes,
		RecoverySlots: m.RecoverySlots,
	}
}

// WriteResultsJSON emits the raw results as a JSON array.
func WriteResultsJSON(w io.Writer, results []Result) error {
	out := make([]Record, len(results))
	for i, r := range results {
		out[i] = NewRecord(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCurveJSON emits the aggregated curve points as a JSON array.
func WriteCurveJSON(w io.Writer, points []CurvePoint) error {
	type statJSON struct {
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
	}
	type pointJSON struct {
		Topology      string   `json:"topology"`
		Traffic       string   `json:"traffic"`
		Workload      string   `json:"workload"`
		Rate          float64  `json:"rate"`
		Mode          string   `json:"mode"`
		Wavelengths   int      `json:"wavelengths"`
		Fault         string   `json:"fault"`
		Seeds         int      `json:"seeds"`
		Throughput    statJSON `json:"throughput"`
		PerNodeThr    statJSON `json:"per_node_throughput"`
		Latency       statJSON `json:"latency"`
		Hops          statJSON `json:"hops"`
		DeliveredFrac statJSON `json:"delivered_frac"`
		Unroutable    statJSON `json:"unroutable"`
		LostToFaults  statJSON `json:"lost_to_faults"`
		RecoverySlots statJSON `json:"recovery_slots"`
	}
	out := make([]pointJSON, len(points))
	for i, p := range points {
		out[i] = pointJSON{
			Topology:      p.Topology,
			Traffic:       p.Workload.Label(),
			Workload:      p.Workload.Label(),
			Rate:          p.Rate,
			Mode:          p.Mode.String(),
			Wavelengths:   p.Wavelengths,
			Fault:         p.Fault.Label(),
			Seeds:         p.Seeds,
			Throughput:    statJSON(p.Throughput),
			PerNodeThr:    statJSON(p.PerNodeThr),
			Latency:       statJSON(p.Latency),
			Hops:          statJSON(p.Hops),
			DeliveredFrac: statJSON(p.DeliveredFrac),
			Unroutable:    statJSON(p.Unroutable),
			LostToFaults:  statJSON(p.LostToFaults),
			RecoverySlots: statJSON(p.RecoverySlots),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
