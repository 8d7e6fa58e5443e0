package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepserver"
)

// cliResult is the parsed output of one netsim single run.
type cliResult struct {
	nodes                                        int
	slots, injected, delivered, dropped, backlog int
	latency                                      float64
}

var (
	nodesRE   = regexp.MustCompile(`\bN=(\d+)\b`)
	metricsRE = regexp.MustCompile(`(?m)^slots=(\d+) injected=(\d+) delivered=(\d+) dropped=(\d+) backlog=(\d+) thr=\S+ lat=([0-9.]+) `)
)

// nodesOf extracts the node count from a topology display name.
func nodesOf(name string) (int, error) {
	m := nodesRE.FindStringSubmatch(name)
	if m == nil {
		return 0, fmt.Errorf("no node count in %q", name)
	}
	return strconv.Atoi(m[1])
}

// parseCLI parses a netsim single-run report and checks that it conserves
// messages: injected = delivered + dropped + backlog.
func parseCLI(out string) (cliResult, error) {
	var r cliResult
	n, err := nodesOf(out)
	if err != nil {
		return r, err
	}
	m := metricsRE.FindStringSubmatch(out)
	if m == nil {
		return r, fmt.Errorf("no metrics line in netsim output %q", out)
	}
	ints := make([]int, 5)
	for i := range ints {
		ints[i], _ = strconv.Atoi(m[i+1])
	}
	lat, _ := strconv.ParseFloat(m[6], 64)
	r = cliResult{nodes: n, slots: ints[0], injected: ints[1], delivered: ints[2], dropped: ints[3], backlog: ints[4], latency: lat}
	if r.injected != r.delivered+r.dropped+r.backlog {
		return r, fmt.Errorf("netsim output does not conserve messages: injected %d != delivered %d + dropped %d + backlog %d",
			r.injected, r.delivered, r.dropped, r.backlog)
	}
	if r.slots <= 0 || r.nodes <= 0 {
		return r, fmt.Errorf("netsim output reports %d slots over %d nodes", r.slots, r.nodes)
	}
	return r, nil
}

// throughputPerNode is delivered messages per slot per node.
func (r cliResult) throughputPerNode() float64 {
	return float64(r.delivered) / float64(r.slots) / float64(r.nodes)
}

// streamRow is one NDJSON line of a sweep result stream.
type streamRow struct {
	Index  int  `json:"index"`
	Cached bool `json:"cached"`
	sweep.Record
}

// rowKey identifies a grid point across jobs.
type rowKey struct {
	Topology string
	Rate     float64
	Mode     string
	Seed     int64
}

// rowBook remembers every computed row of one server's life, so rows the
// server later answers from its cache can be checked against them.
type rowBook struct {
	cold map[rowKey]sweep.Record
}

func newRowBook() *rowBook { return &rowBook{cold: make(map[rowKey]sweep.Record)} }

// check validates one job's stream: every point exactly once, every row
// conserving messages, and every row equal to the row computed earlier
// for the same point. A cached row must have a computed counterpart.
func (b *rowBook) check(rows []streamRow, points int) error {
	if len(rows) != points {
		return fmt.Errorf("stream has %d rows for %d points", len(rows), points)
	}
	seen := make([]bool, points)
	for _, r := range rows {
		if r.Index < 0 || r.Index >= points || seen[r.Index] {
			return fmt.Errorf("stream row index %d repeated or out of range", r.Index)
		}
		seen[r.Index] = true
		if r.Injected != r.Delivered+r.Dropped+r.Backlog {
			return fmt.Errorf("row %d does not conserve messages: injected %d != delivered %d + dropped %d + backlog %d",
				r.Index, r.Injected, r.Delivered, r.Dropped, r.Backlog)
		}
		k := rowKey{r.Topology, r.Rate, r.Mode, r.Seed}
		prev, ok := b.cold[k]
		switch {
		case ok && prev != r.Record:
			return fmt.Errorf("row %d (%s rate %g %s seed %d) differs from its earlier computed row", r.Index, r.Topology, r.Rate, r.Mode, r.Seed)
		case !ok && r.Cached:
			return fmt.Errorf("row %d served from cache without a computed counterpart", r.Index)
		case !ok:
			b.cold[k] = r.Record
		}
	}
	return nil
}

// parseStream decodes an NDJSON result stream.
func parseStream(body []byte) ([]streamRow, error) {
	var rows []streamRow
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r streamRow
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("bad stream row: %w", err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// inProcessCurve computes a grid's curve in this process, through the same
// expansion and aggregation the server uses, as the server writes it.
func inProcessCurve(payload []byte) ([]byte, error) {
	points, err := sweepserver.PointsFromSpec(payload)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = sweep.WriteCurveJSON(&buf, sweep.Aggregate(sweep.Runner{Workers: 2}.Run(points)))
	return buf.Bytes(), err
}

// checkCurve compares a served curve with the in-process curve of the
// same grid, byte for byte.
func checkCurve(payload, served []byte) error {
	want, err := inProcessCurve(payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, served) {
		return fmt.Errorf("served curve differs from the in-process curve of the same grid")
	}
	return nil
}
