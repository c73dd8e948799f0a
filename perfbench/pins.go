package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// pins.json holds, per simulated workload and seed, the statistics of the
// seed's input cycle (simStats). A run on a pinned seed must reproduce them
// exactly; regenerate them only when a change is meant to alter what is
// simulated, never for a change that claims only speed:
//
//	bash perfbench/run.sh -pin perfbench/pins.json
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]simStats

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return t, nil
}

func (t pinTable) lookup(workload string, seed int64) *simStats {
	st, ok := t[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	return &st
}

// pinCycles are the workloads whose statistics are pinned and the function
// computing a seed's cycle for each; the live workload runs in real time
// and has nothing deterministic to pin.
func pinCycles(nproc int) map[string]func(int64) (simStats, error) {
	return map[string]func(int64) (simStats, error){
		"mesh":     meshWorkload().cycle,
		"sampled":  sampledWorkload(nproc).cycle,
		"campaign": newCampaignWorkload().cycle,
	}
}

// writePins computes the statistics of seeds 0–63 and the held-out seed
// and writes them to path.
func writePins(path string, log io.Writer) error {
	seeds := []int64{heldOutSeed}
	for seed := int64(0); seed < 64; seed++ {
		seeds = append(seeds, seed)
	}
	t := pinTable{}
	for name, cycle := range pinCycles(1) {
		t[name] = map[string]simStats{}
		for _, seed := range seeds {
			st, err := cycle(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			t[name][strconv.FormatInt(seed, 10)] = st
		}
		fmt.Fprintf(log, "pinned %s for %d seeds\n", name, len(seeds))
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
