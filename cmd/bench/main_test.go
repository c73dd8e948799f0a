package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRegistryMatchesBaselines: -update rewrites each committed baseline
// from the registry, so the registry must list exactly the rows each file
// records, in file order, and only the serving rows may carry qps.
func TestRegistryMatchesBaselines(t *testing.T) {
	for _, s := range suites {
		raw, err := os.ReadFile(filepath.Join("..", "..", s.file))
		if err != nil {
			t.Fatal(err)
		}
		var rows []map[string]any
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatalf("%s: %v", s.file, err)
		}
		var committed, registered []string
		for _, r := range rows {
			committed = append(committed, r["name"].(string))
			if _, ok := r["qps"]; ok != s.qps {
				t.Errorf("%s row %v: qps present = %v, want %v", s.file, r["name"], ok, s.qps)
			}
		}
		for _, e := range s.rows {
			registered = append(registered, e.name)
		}
		if !reflect.DeepEqual(committed, registered) {
			t.Errorf("%s records %v, registry lists %v", s.file, committed, registered)
		}
	}
}
