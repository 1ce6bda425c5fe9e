package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"radiobcast"
	"radiobcast/client"
)

// sweep-grid: one caller sends sequential /v1/sweep requests over one
// fixed grid, each with a new fault seed. The grid's 120 distinct
// labelings fit the daemon's default 128-entry cache, so a daemon that
// serves several sweeps (the traced run) labels once. roundrobin and
// barb cost O(n) per round, so the grid stops at n = 256.
var (
	sweepFamilies  = zipfFamilies
	sweepSizes     = []int{64, 256}
	sweepSchemes   = []string{"b", "back", "roundrobin", "centralized", "barb"}
	sweepSources   = []int{0, 63}
	sweepRates     = []float64{0, 0.05}
	sweepFaults    = []radiobcast.FaultSpec{{Model: radiobcast.FaultModelCrash, Rate: 0.02}}
	sweepGridFlags = []string{"-rate", "-1", "-sweep-workers", "2"}
)

// sweepCells is the number of grid points of one request.
var sweepCells = len(sweepFamilies) * len(sweepSizes) * len(sweepSchemes) *
	len(sweepSources) * (len(sweepRates) + len(sweepFaults))

// sweepRequest is request i of the run: the fixed grid with a seed drawn
// from the run's seed.
func sweepRequest(seed uint64, i int) client.SweepRequest {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	return client.SweepRequest{
		Families: sweepFamilies, Sizes: sweepSizes, Schemes: sweepSchemes,
		Sources: sweepSources, FaultRates: sweepRates, Faults: sweepFaults,
		Repeats: 1, Seed: 1 + rng.Int64N(1<<40),
	}
}

// sweepStream is what the caller observed of one NDJSON stream.
type sweepStream struct {
	body      []byte        // the request body
	first     time.Duration // request sent → first cell
	cells     []client.SweepCellResult
	done      time.Duration // request sent → done line
	respBytes int
}

// postSweep sends one sweep and reads its stream to the end, checking
// that it ends in done with one cell per grid point and that every clean
// cell verified. A non-nil span is propagated to the handler.
func postSweep(hc *http.Client, base string, req client.SweepRequest, sp *active) (*sweepStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := newPost(base+"/v1/sweep", body, sp)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	st := &sweepStream{body: body}
	seen := make([]bool, sweepCells)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if st.first == 0 {
			st.first = time.Since(t0)
		}
		st.respBytes += len(sc.Bytes()) + 1
		var line client.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		switch {
		case line.Error != nil:
			return nil, fmt.Errorf("sweep failed: %s", line.Error.Message)
		case line.Done != nil:
			st.done = time.Since(t0)
			if line.Done.Cells != sweepCells || len(st.cells) != sweepCells {
				return nil, fmt.Errorf("done after %d cells (summary %d), grid has %d", len(st.cells), line.Done.Cells, sweepCells)
			}
			return st, nil
		case line.Cell != nil:
			c := line.Cell
			if c.Index < 0 || c.Index >= sweepCells || seen[c.Index] {
				return nil, fmt.Errorf("cell index %d repeated or out of range", c.Index)
			}
			seen[c.Index] = true
			if c.Error != "" {
				return nil, fmt.Errorf("cell %d: %s", c.Index, c.Error)
			}
			if clean(c) && !c.Verified {
				return nil, fmt.Errorf("clean cell %d (%s/%d/%s) not verified", c.Index, c.Family, c.Size, c.Scheme)
			}
			st.cells = append(st.cells, *c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without done after %d cells", len(st.cells))
}

func clean(c *client.SweepCellResult) bool { return c.FaultRate == 0 && c.Fault == "" }

// checkCleanCells compares the completion round of every clean cell with
// the in-process reference of its labeling.
func checkCleanCells(r *refs, cells []client.SweepCellResult, rep *report) error {
	for _, c := range cells {
		want, err := r.completionRound(key{c.Family, c.Size, c.Scheme, c.Source})
		if err != nil {
			return err
		}
		if c.CompletionRound != want {
			rep.fail("sweep cell %d (%s/%d/%s/src=%d): completion round %d, reference %d",
				c.Index, c.Family, c.Size, c.Scheme, c.Source, c.CompletionRound, want)
		}
	}
	return nil
}

func runSweepGrid(e *env) (*report, error) {
	rep := newReport()
	r := &refs{}
	var cleanCells []client.SweepCellResult
	_, err := runCycles(e, cycleSpec{
		flags: func(string) []string { return sweepGridFlags },
		conns: 1,
		// One sweep per cold daemon: its first cell waits for the full
		// label barrier (every labeling of the grid computed), which is
		// what first_cell_ms exposes. A warm cache leaves only graph
		// builds and scheduling noise before the first cell.
		requests: 1,
		send: func(base string, hc *http.Client, i int) (time.Duration, int, error) {
			st, err := postSweep(hc, base, sweepRequest(e.seed, i), nil)
			if err != nil {
				return 0, sweepCells, err
			}
			for _, c := range st.cells {
				if clean(&c) {
					cleanCells = append(cleanCells, c)
				}
			}
			return st.first, sweepCells, nil
		},
	}, rep)
	if err != nil {
		return nil, err
	}
	return rep, checkCleanCells(r, cleanCells, rep)
}
