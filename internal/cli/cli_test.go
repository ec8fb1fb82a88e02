package cli

import (
	"testing"

	"sparsehamming/internal/topo"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"", nil, false},
		{"  ", nil, false},
		{"4", []int{4}, false},
		{"2,4", []int{2, 4}, false},
		{" 2 , 5 ", []int{2, 5}, false},
		{"2,,4", nil, true},
		{"x", nil, true},
	}
	for _, c := range cases {
		got, err := ParseInts(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseInts(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseInts(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestBuildTopologyAllKinds(t *testing.T) {
	for _, kind := range topo.Names() {
		rows, cols := 8, 8
		if kind == "slimnoc" {
			cols = 16
		}
		tp, err := BuildTopology(kind, rows, cols, "2", "3")
		if err != nil {
			t.Errorf("BuildTopology(%s): %v", kind, err)
			continue
		}
		if tp.NumTiles() != rows*cols {
			t.Errorf("%s: %d tiles", kind, tp.NumTiles())
		}
	}
}

func TestBuildTopologyErrors(t *testing.T) {
	if _, err := BuildTopology("nope", 4, 4, "", ""); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := BuildTopology("sparse-hamming", 4, 4, "x", ""); err == nil {
		t.Error("bad -sr accepted")
	}
	if _, err := BuildTopology("sparse-hamming", 4, 4, "", "y"); err == nil {
		t.Error("bad -sc accepted")
	}
	if _, err := BuildTopology("hypercube", 6, 6, "", ""); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
}

func TestBuildRucheFactor(t *testing.T) {
	r, err := BuildTopology("ruche", 8, 8, "3", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "ruche" {
		t.Errorf("kind = %s", r.Kind)
	}
	// Default factor 2 when -sr empty.
	r2, err := BuildTopology("ruche", 8, 8, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if r2.MaxRadix() <= 4 {
		t.Error("default ruche factor should add links")
	}
}
