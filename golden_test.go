package sparsehamming

// Golden CSVs for the checked-in campaign specs: every file under
// examples/specs/ is pinned byte for byte by testdata/golden/<spec>.csv,
// the flat CSV `shrun -csv -jobs 1` prints for it. A bit-identical
// change leaves every file untouched; a change that moves results
// regenerates the affected files in the same commit with
//
//	go test -run TestSpecGolden -update-golden .
//	go run ./cmd/shrun -csv -jobs 1 examples/specs/figure6-full.json > testdata/golden/figure6-full.csv
//	go run ./cmd/shrun -csv -jobs 1 examples/specs/figure6-adaptive.json > testdata/golden/figure6-adaptive.csv
//
// figure6-full takes about a minute on two cores and figure6-adaptive
// about ten seconds, so the Go test leaves both to CI, which compares
// `shrun -csv` against their goldens directly (the adaptive run doubles
// as CI's -jobs 1 vs -jobs 2 determinism check). figure6-quick stays
// here: TestFigure6ScenarioA in internal/noc reads its golden rows.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/report"
	"sparsehamming/internal/spec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.csv from the current code")

// goldenSpecs lists the specs TestSpecGolden regenerates. The cheap
// ones run in seconds, so -short covers them and also checks them at
// one and two workers.
var goldenSpecs = []struct {
	name  string
	cheap bool
}{
	{"cost-survey", true},
	{"custom-96", true},
	{"dse-surrogate", true},
	{"mempool-validation", true},
	{"traces-app", true},
	{"figure6-quick", false},
}

// specCSV runs a checked-in spec as one campaign batch on a fresh
// runner with the given worker count and renders the flat CSV, as
// shrun -csv does.
func specCSV(t *testing.T, name string, jobs int) []byte {
	t.Helper()
	path := filepath.Join("examples", "specs", name+".json")
	s, err := spec.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	groups, err := s.ExpandSweeps()
	if err != nil {
		t.Fatal(err)
	}
	var all []exp.Job
	for _, g := range groups {
		all = append(all, g...)
	}
	results, _, err := noc.NewRunner(jobs, nil).Run(all)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var b bytes.Buffer
	report.WriteCSV(&b, s, groups, results)
	return b.Bytes()
}

// TestSpecGolden regenerates each checked-in spec's CSV and compares
// it byte for byte with its golden file.
func TestSpecGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			if testing.Short() && !g.cheap {
				t.Skip("simulates a whole Figure 6 campaign")
			}
			path := filepath.Join("testdata", "golden", g.name+".csv")
			if *updateGolden {
				if err := os.WriteFile(path, specCSV(t, g.name, 1), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to regenerate)", err)
			}
			workers := []int{2}
			if g.cheap {
				workers = []int{1, 2}
			}
			for _, jobs := range workers {
				if got := specCSV(t, g.name, jobs); !bytes.Equal(got, want) {
					t.Errorf("-jobs %d: CSV differs from %s (run with -update-golden after an intended change):\n%s",
						jobs, path, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	return "(no line differs)"
}
