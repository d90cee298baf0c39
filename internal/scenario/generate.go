package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/detrand"
	"repro/internal/grid"
)

// Params parameterizes a procedural deployment. The zero value of any
// field means "pick a sensible default for the scale".
type Params struct {
	// Stations is the outlet count (minimum 2; default 12).
	Stations int
	// Boards is the distribution-board count; each board feeds one wing
	// and one logical PLC network (default 1, maximum Stations).
	Boards int
	// Seed drives the layout draws (positions, appliance assignment).
	// It is independent of the testbed's simulation seed: one layout
	// can be measured under many channel seeds, and vice versa.
	Seed int64
	// Width and Height are the floor extents in metres; zero scales
	// them with the station count.
	Width, Height float64
	// Interferers is the shared always-on/duty appliance count plugged
	// at spine junctions (capped by the grid's appliance budget).
	// Zero means the default of one per four stations; negative means
	// none.
	Interferers int
}

// withDefaults resolves zero fields.
func (p Params) withDefaults() Params {
	if p.Stations < 2 {
		if p.Stations == 0 {
			p.Stations = 12
		} else {
			p.Stations = 2
		}
	}
	if p.Boards < 1 {
		p.Boards = 1
	}
	if p.Boards > p.Stations {
		p.Boards = p.Stations
	}
	if p.Width <= 0 {
		// Roughly paper density: the 19-station floor is 70 m wide.
		p.Width = math.Max(14, 3.7*float64(p.Stations))
	}
	if p.Height <= 0 {
		p.Height = math.Max(9, p.Width*0.55)
	}
	if p.Interferers == 0 {
		p.Interferers = p.Stations / 4
	} else if p.Interferers < 0 {
		p.Interferers = 0
	}
	return p
}

// Spec renders the canonical gen: spelling of the parameters — the
// registry name of the generated blueprint, accepted back by Parse.
func (p Params) Spec() string {
	p = p.withDefaults()
	ifr := p.Interferers
	if ifr == 0 {
		ifr = -1 // "none" round-trips; a bare 0 would re-resolve to the default
	}
	return fmt.Sprintf("gen:stations=%d,boards=%d,seed=%d,width=%g,height=%g,interferers=%d",
		p.Stations, p.Boards, p.Seed, p.Width, p.Height, ifr)
}

// interfererPalette is the population Generate draws shared appliances
// from; always-on and compressor classes lead so generated floors keep
// the §6.2 night-time noise floor.
var interfererPalette = []*grid.ApplianceClass{
	grid.ClassServerRack,
	grid.ClassFridge,
	grid.ClassVendingMachine,
	grid.ClassDimmer,
	grid.ClassLabEquipment,
	grid.ClassKettle,
	grid.ClassRouter,
}

// Generate emits a procedural blueprint: Boards wings side by side,
// each fed by its own board with a northern and a southern corridor
// spine, stations scattered over the wings round-robin, and an
// appliance population (desk PCs, lighting, shared interferers) kept
// within the grid's state-mask budget. Equal Params produce identical
// blueprints; the layout is a pure function of (Params, Params.Seed).
func Generate(p Params) *Blueprint {
	p = p.withDefaults()
	bp := &Blueprint{Name: p.Spec()}
	seed := uint64(p.Seed)

	wingW := p.Width / float64(p.Boards)
	h := p.Height
	for b := 0; b < p.Boards; b++ {
		lo := float64(b) * wingW
		bp.Boards = append(bp.Boards, Board{lo + wingW/2, h / 2})
		if b > 0 {
			bp.Interconnects = append(bp.Interconnects, Interconnect{A: b - 1, B: b, Length: 220})
		}
		// Two corridor spines per wing, junctions every ~4.5 m walking
		// outward from the board; the northern run heads for the left
		// edge of the wing, the southern for the right, so drops reach
		// every corner without doubling back.
		nj := int(math.Max(3, wingW/4.5))
		var north, south []float64
		for j := 1; j <= nj; j++ {
			f := float64(j) / float64(nj)
			north = append(north, lo+wingW/2-f*(wingW/2-1.5))
			south = append(south, lo+wingW/2+f*(wingW/2-1.5))
		}
		bp.Spines = append(bp.Spines,
			Spine{Board: b, Y: h * 0.75, Xs: north},
			Spine{Board: b, Y: h * 0.3, Xs: south},
		)
		mid := nj / 2
		bp.CrossTies = append(bp.CrossTies,
			CrossTie{SpineA: 2 * b, NodeA: mid + 1, SpineB: 2*b + 1, NodeB: mid + 1, Length: math.Max(4, h*0.45)})
	}

	// Stations round-robin over wings so every board (and so every
	// network) is populated; positions are hashed uniform draws over
	// the wing with a 1.5 m wall margin.
	firstOnBoard := make([]int, p.Boards)
	for i := range firstOnBoard {
		firstOnBoard[i] = -1
	}
	for s := 0; s < p.Stations; s++ {
		b := s % p.Boards
		lo := float64(b) * wingW
		x := lo + 1.5 + detrand.Uniform(seed, uint64(s), 0x5ce0)*(wingW-3)
		y := 1.5 + detrand.Uniform(seed, uint64(s), 0x5ce1)*(h-3)
		bp.Stations = append(bp.Stations, Station{X: x, Y: y, Board: b, Network: b})
		if firstOnBoard[b] < 0 {
			firstOnBoard[b] = s
		}
	}
	for _, s := range firstOnBoard {
		bp.CCos = append(bp.CCos, s)
	}

	// Appliance budget: the uint64 state mask caps the population, so
	// desks and lights degrade gracefully as floors grow — exactly the
	// large-deployment regime where per-device modelling must be
	// rationed.
	budget := grid.MaxAppliances - p.Interferers
	if budget < 0 {
		budget = 0
	}
	used := 0
	for s := range bp.Stations {
		if used < budget && detrand.Bool(0.8, seed, uint64(s), 0xde5c) {
			bp.Stations[s].Appliances = append(bp.Stations[s].Appliances, grid.ClassDesktopPC)
			used++
		}
		if used < budget && s%2 == 0 && detrand.Bool(0.7, seed, uint64(s), 0x11948) {
			bp.Stations[s].Appliances = append(bp.Stations[s].Appliances, grid.ClassFluorescent)
			used++
		}
	}
	for i := 0; i < p.Interferers && used < grid.MaxAppliances; i++ {
		cls := interfererPalette[int(detrand.Hash64(seed, uint64(i), 0x1f7)%uint64(len(interfererPalette)))]
		sp := int(detrand.Hash64(seed, uint64(i), 0x1f8) % uint64(len(bp.Spines)))
		node := 1 + int(detrand.Hash64(seed, uint64(i), 0x1f9)%uint64(len(bp.Spines[sp].Xs)))
		bp.Shared = append(bp.Shared, SharedAppliance{Class: cls, Spine: sp, Node: node})
		used++
	}
	return bp
}

// maxExtentM bounds a generated floor's width and height. A city block
// is already far beyond any PLC reach; past it the spine junction count
// (extent / 4.5 m) stops fitting the geometry.
const maxExtentM = 10_000

// parseGen resolves a "gen:k=v,..." spec into Params. Accepted keys:
// stations, boards, seed, width, height, interferers; terms separate on
// ',' or ';' (the latter survives comma-separated scenario lists).
// Values outside their documented range are errors, never clamped:
// stations and boards must be non-negative (zero picks the default) and
// width and height finite within [0, maxExtentM], defaulted ones
// included. A negative interferers count keeps its documented meaning
// of "none".
func parseGen(spec string) (Params, error) {
	body := strings.TrimPrefix(spec, "gen:")
	var p Params
	if strings.TrimSpace(body) == "" {
		return p, nil
	}
	for _, kv := range strings.FieldsFunc(body, func(r rune) bool { return r == ',' || r == ';' }) {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("scenario: bad gen spec term %q (want key=value)", kv)
		}
		var err error
		switch key := strings.TrimSpace(k); key {
		case "stations":
			p.Stations, err = parseCount(key, v)
		case "boards":
			p.Boards, err = parseCount(key, v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				err = fmt.Errorf("scenario: bad seed %q", v)
			}
		case "width":
			p.Width, err = parseExtent(key, v)
		case "height":
			p.Height, err = parseExtent(key, v)
		case "interferers":
			p.Interferers, err = strconv.Atoi(v)
			if err != nil {
				err = fmt.Errorf("scenario: bad interferers %q", v)
			}
		default:
			err = fmt.Errorf("scenario: unknown gen spec key %q", k)
		}
		if err != nil {
			return p, err
		}
	}
	// Defaulted extents scale with the station count; bound them too, so
	// every accepted spec's canonical Spec() parses back.
	if r := p.withDefaults(); r.Width > maxExtentM || r.Height > maxExtentM {
		return p, fmt.Errorf("scenario: gen floor of %d stations spans %gx%g m, beyond %d m",
			r.Stations, r.Width, r.Height, maxExtentM)
	}
	return p, nil
}

// parseCount reads a non-negative integer gen: value.
func parseCount(key, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("scenario: bad %s %q (want a non-negative integer)", key, v)
	}
	return n, nil
}

// parseExtent reads a floor extent in metres. NaN and infinities would
// slip past withDefaults' <= 0 check and poison the geometry; finite
// values beyond maxExtentM overflow the spine junction count.
func parseExtent(key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f >= 0 && f <= maxExtentM) {
		return 0, fmt.Errorf("scenario: bad %s %q (want metres in [0, %d])", key, v, maxExtentM)
	}
	return f, nil
}
