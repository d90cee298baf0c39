package scenario

import (
	"bytes"
	"testing"

	"repro/internal/grid"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		bp, err := Parse(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bp.Name != name {
			t.Fatalf("%s: blueprint named %q", name, bp.Name)
		}
		if n := bp.NumAppliances(); n > grid.MaxAppliances {
			t.Fatalf("%s: %d appliances", name, n)
		}
	}
}

func TestPresetDiversity(t *testing.T) {
	// The presets must actually span scale: one small single-board
	// home, the paper floor, and a 3+-board 40+-station office.
	flat, _ := Parse("flat")
	if len(flat.Boards) != 1 || len(flat.Stations) >= 10 {
		t.Fatalf("flat = %d boards, %d stations", len(flat.Boards), len(flat.Stations))
	}
	large, _ := Parse("large-office")
	if len(large.Boards) < 3 || len(large.Stations) < 40 {
		t.Fatalf("large-office = %d boards, %d stations", len(large.Boards), len(large.Stations))
	}
	paper, _ := Parse("paper")
	if len(paper.Stations) != 19 || len(paper.Boards) != 2 {
		t.Fatalf("paper = %d boards, %d stations", len(paper.Boards), len(paper.Stations))
	}
	// The apartment block's character is its always-on interferer load.
	apt, _ := Parse("apartment")
	alwaysOn := 0
	count := func(cls *grid.ApplianceClass) {
		if cls.Schedule == grid.AlwaysOn || cls.Schedule == grid.Compressor {
			alwaysOn++
		}
	}
	for _, st := range apt.Stations {
		for _, c := range st.Appliances {
			count(c)
		}
	}
	for _, sh := range apt.Shared {
		count(sh.Class)
	}
	if alwaysOn < 15 {
		t.Fatalf("apartment always-on/compressor population = %d, want heavy", alwaysOn)
	}
}

func TestBlueprintJSONDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Parse(name)
		b, _ := Parse(name)
		ja, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := b.JSON()
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: two parses serialize differently", name)
		}
	}
}

func TestGenerateDeterministicAndBudgeted(t *testing.T) {
	p := Params{Stations: 80, Boards: 4, Seed: 9}
	a, b := Generate(p), Generate(p)
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatal("equal params must generate byte-identical blueprints")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := a.NumAppliances(); n > grid.MaxAppliances {
		t.Fatalf("appliances = %d, exceeds the grid budget", n)
	}
	if len(a.Stations) != 80 || len(a.Boards) != 4 {
		t.Fatalf("generated %d stations, %d boards", len(a.Stations), len(a.Boards))
	}
	// Different layout seeds must actually vary the floor.
	c := Generate(Params{Stations: 80, Boards: 4, Seed: 10})
	jc, _ := c.JSON()
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds generated identical blueprints")
	}
}

func TestGenerateEveryBoardPopulatedAndCCoed(t *testing.T) {
	bp := Generate(Params{Stations: 7, Boards: 3, Seed: 2})
	onBoard := make(map[int]int)
	for _, st := range bp.Stations {
		onBoard[st.Board]++
	}
	for b := 0; b < 3; b++ {
		if onBoard[b] == 0 {
			t.Fatalf("board %d has no stations", b)
		}
	}
	if len(bp.CCos) != 3 {
		t.Fatalf("CCos = %v, want one per network", bp.CCos)
	}
}

func TestParseGenRoundTrip(t *testing.T) {
	bp, err := Parse("gen:stations=24,boards=2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(bp.Name) // canonical spec must parse back
	if err != nil {
		t.Fatalf("canonical spec %q: %v", bp.Name, err)
	}
	ja, _ := bp.JSON()
	jb, _ := again.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("round trip through %q changed the blueprint", bp.Name)
	}
	// Semicolon spelling (used inside comma-separated scenario lists).
	semi, err := Parse("gen:stations=24;boards=2;seed=3")
	if err != nil {
		t.Fatal(err)
	}
	js, _ := semi.JSON()
	if !bytes.Equal(ja, js) {
		t.Fatal("semicolon and comma spellings must agree")
	}
}

func TestParseRejects(t *testing.T) {
	for _, sel := range []string{
		"atlantis", "gen:stations=", "gen:bogus=3", "gen:stations=two",
		// Non-finite extents parse as floats but would slip past
		// withDefaults' <= 0 checks and corrupt the geometry.
		"gen:width=nan", "gen:height=nan", "gen:width=+inf", "gen:height=-inf",
	} {
		if _, err := Parse(sel); err == nil {
			t.Fatalf("Parse(%q) succeeded", sel)
		}
	}
	if _, err := Parse(""); err != nil {
		t.Fatalf("empty selection must resolve to the default: %v", err)
	}
}

// TestParseGenOutOfRange: finite but absurd extents used to reach
// Generate, where a 1e308 m wing overflowed the spine junction count and
// panicked with an integer divide by zero — reachable by anyone through
// planed's POST /floors?spec=. Negative counts used to be clamped
// silently. All are now parse errors, as is a station count whose
// default extent is out of range; the documented "interferers<0 means
// none" stays accepted.
func TestParseGenOutOfRange(t *testing.T) {
	for _, sel := range []string{
		"gen:width=1e308", "gen:height=1e308", "gen:width=-1e308",
		"gen:width=1e7", "gen:height=-5", "gen:width=-0.5",
		"gen:stations=-1", "gen:stations=-9223372036854775808", "gen:boards=-3",
		// The default width scales with stations, so it is bounded too.
		"gen:stations=5000",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", sel, r)
				}
			}()
			if _, err := Parse(sel); err == nil {
				t.Fatalf("Parse(%q) succeeded", sel)
			}
		}()
	}
	for _, sel := range []string{
		"gen:interferers=-1", "gen:width=0,height=0",
		"gen:stations=6,width=10000,height=10000",
	} {
		if _, err := Parse(sel); err != nil {
			t.Fatalf("Parse(%q): %v", sel, err)
		}
	}
}

func TestValidateCatches(t *testing.T) {
	base := func() *Blueprint {
		return &Blueprint{
			Name:   "t",
			Boards: []Board{{0, 0}},
			Spines: []Spine{{Board: 0, Y: 1, Xs: []float64{1, 2}}},
			Stations: []Station{
				{X: 1, Y: 1, Board: 0, Network: 0},
				{X: 2, Y: 1, Board: 0, Network: 0},
			},
			CCos: []int{0},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base blueprint invalid: %v", err)
	}
	cases := map[string]func(*Blueprint){
		"no boards":         func(bp *Blueprint) { bp.Boards = nil },
		"bad station board": func(bp *Blueprint) { bp.Stations[0].Board = 7 },
		"no cco":            func(bp *Blueprint) { bp.CCos = nil },
		"two ccos":          func(bp *Blueprint) { bp.CCos = []int{0, 1} },
		"cco out of range":  func(bp *Blueprint) { bp.CCos = []int{9} },
		"bad cross-tie":     func(bp *Blueprint) { bp.CrossTies = []CrossTie{{SpineA: 0, NodeA: 5, SpineB: 0, NodeB: 1, Length: 3}} },
		"bad shared":        func(bp *Blueprint) { bp.Shared = []SharedAppliance{{Class: grid.ClassKettle, Spine: 3, Node: 0}} },
		"boardless station": func(bp *Blueprint) {
			bp.Spines[0].Board = 0
			bp.Stations[1].Board = 0
			bp.Boards = append(bp.Boards, Board{5, 5})
			bp.Stations[1].Board = 1
		},
		"over budget": func(bp *Blueprint) {
			for i := 0; i <= grid.MaxAppliances; i++ {
				bp.Shared = append(bp.Shared, SharedAppliance{Class: grid.ClassKettle, Spine: 0, Node: 1})
			}
		},
	}
	for name, mutate := range cases {
		bp := base()
		mutate(bp)
		if err := bp.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}
