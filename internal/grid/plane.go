package grid

import (
	"math"
	"math/cmplx"
	"sync"
	"time"

	"repro/internal/mains"
)

// Plane is the grid-level shared channel engine: every piece of channel
// state that does not depend on a directed (transmitter, receiver) pair,
// hoisted out of the per-link arrays that used to replicate it. One grid
// owns one Plane per carrier plan; every Link built over that plan shares
//
//   - the appliance mask timeline (one StateMask evaluation per distinct
//     instant — previously every link re-evaluated all appliance
//     schedules on every Advance);
//   - the per-appliance electrical constants (reflection coefficients,
//     direct-path tap factors, per-slot noise multipliers);
//   - the fast noise modulation (flicker + switching impulses) evaluated
//     once per instant instead of once per link per instant;
//   - the appliance reflection geometry, computed once per *undirected*
//     station pair and shared by both directions (guarded by a bitwise
//     symmetry check, see pairSymmetric);
//   - the attenuated appliance noise vectors, which depend only on the
//     receiving outlet and are shared by every link towards it;
//   - the background noise floor.
//
// Pair geometry and receiver sites materialise lazily, so a topology only
// pays for the pairs actually queried. What remains in Link is the small
// mutable per-direction state (current reflection sum, noise floor, gain)
// plus the direct-path and structural-reflection phasors, whose inputs are
// genuinely direction-dependent at the floating-point level (shortest-path
// distances accumulate cable segments in source order, so Dist(a,b) and
// Dist(b,a) can differ in the last bit — see pairSymmetric).
type Plane struct {
	g     *Grid
	freqs []float64

	// mu guards the mutable caches below (mask memo, shift factors,
	// pair/site maps). Individual links stay single-goroutine like
	// before, but *different* links of one grid may be driven
	// concurrently (al.Watch spawns one goroutine per watched link),
	// and they now share this plane.
	mu sync.Mutex

	// Background noise floor over the carrier plan.
	bgLin []float64 // linear mW/Hz per carrier
	bgW   float64   // band average

	// Per-appliance shared electrical constants, grown on demand.
	// Append guarded by mu; rows are immutable once written, so the
	// hot paths (coeff, tapFactor, addNoise) index them lock-free.
	app []applianceShared

	// volatileBits masks the appliances whose class carries a fast-noise
	// term (flicker or switching impulses): only their bits can make
	// ShiftDB vary between instants at a fixed mask. Guarded by mu
	// (rebuilt in ensureAppliances alongside app).
	volatileBits uint64

	pairs map[pairKey]*pairEntry // guarded by mu
	sites map[NodeID]*rxSite     // guarded by mu

	// Flicker/impulse factors at one instant, shared by every link's
	// ShiftDB (the per-appliance factor is mask- and pair-independent).
	// shiftQuiet records the quiet-interval proof for shiftT: the mask
	// has held since at least ImpulseDuration before it, so no appliance
	// carries a switching impulse (see syncShift).
	shiftT     time.Duration // guarded by mu
	shiftInit  bool          // guarded by mu
	shiftQuiet bool          // guarded by mu
	shiftOK    []bool        // guarded by mu
	shiftVal   []float64     // guarded by mu

	// Per-appliance flicker memo: the two Gaussian draws bracketing the
	// last flicker block each appliance was evaluated in.
	flicker []flickerMemo // guarded by mu
}

// flickerMemo holds one appliance's draws at the start of block and of
// block+1, the pair FlickerDB interpolates between.
type flickerMemo struct {
	block  uint64
	g0, g1 float64
	ok     bool
}

// applianceShared bundles the per-appliance constants every link used to
// recompute privately.
type applianceShared struct {
	slotMul  [mains.Slots]float64 // linear per-slot noise multiplier
	coeffOn  float64              // bounceGain·Γ, appliance on
	coeffOff float64              // bounceGain·Γ, appliance off
	tapOn    float64              // direct-path transmission factor, on
	tapOff   float64              // direct-path transmission factor, off
}

// pairKey identifies an undirected station pair.
type pairKey struct{ lo, hi NodeID }

// pairEntry caches the appliance reflection geometry of one pair. When
// the pair is bitwise symmetric both orientations share one core;
// otherwise each direction materialises its own on first use.
type pairEntry struct {
	symmetric bool
	symNA     int       // appliance count the symmetry check covered
	fwd       *pairCore // lo→hi (and hi→lo when symmetric)
	rev       *pairCore // hi→lo when not symmetric
}

// pairCore is the immutable appliance-reflection geometry of one station
// pair: the per-appliance multipath phasors (with their second-order
// echoes), the on-path flags feeding the direct-path tap product, and the
// electrical reachability gate. pathVec is a flat [appliance × carrier]
// array for cache locality in the toggle/rebuild hot loops; it is built
// lazily on first SNR materialisation (the reach/onPath geometry, which
// gates dirty tracking and the noise shift, is cheap and always present).
//
// reachBits/onPathBits mirror the bool slices as masks over appliance
// bits: a mask transition whose diff misses reachBits cannot move any
// value this pair's links expose (zero reflection rows, no on-path tap,
// no reachable noise), so such transitions are skipped entirely —
// the dirty-tracking gate of the event-driven plane.
type pairCore struct {
	tx, rx  NodeID       // orientation the core was built for
	pathVec []complex128 // flat, row i at [i*n : (i+1)*n]; nil until needed
	onPath  []bool
	reach   []bool // appliance electrically reachable from both ends
	na, n   int

	reachBits  uint64
	onPathBits uint64
}

func (pc *pairCore) row(i int) []complex128 { return pc.pathVec[i*pc.n : (i+1)*pc.n] }

// rxSite is the attenuated appliance noise geometry at one receiving
// outlet — a function of the receiver alone, shared by every link
// towards it. noiseVec is flat [appliance × carrier]. wBits masks the
// appliances with a nonzero band-average weight, so ShiftDB iterates set
// bits instead of scanning the appliance population.
type rxSite struct {
	noiseVec []float64 // linear mW/Hz, row i at [i*n : (i+1)*n]
	noiseW   []float64 // band-average weights
	wBits    uint64
	na, n    int

	// Single-entry ShiftDB memo: the shift is a pure function of
	// (site, contributing-appliance set, instant), and every link towards
	// one receiver on a fully reachable grid shares the same set — so one
	// computation per site per instant serves the whole fan-in. ShiftDB
	// computes and reads it under the plane's lock.
	shiftMemoT   time.Duration // guarded by mu
	shiftMemoOn  uint64        // guarded by mu
	shiftMemoVal float64       // guarded by mu
	shiftMemoOK  bool          // guarded by mu
}

func (s *rxSite) row(i int) []float64 { return s.noiseVec[i*s.n : (i+1)*s.n] }

// newPlane builds the shared engine for one carrier plan.
func newPlane(g *Grid, freqs []float64) *Plane {
	p := &Plane{
		g:     g,
		freqs: freqs,
		bgLin: make([]float64, len(freqs)),
		pairs: make(map[pairKey]*pairEntry),
		sites: make(map[NodeID]*rxSite),
	}
	var bg float64
	for c, f := range freqs {
		p.bgLin[c] = math.Pow(10, backgroundNoiseDBmHz(f)/10)
		bg += p.bgLin[c]
	}
	p.bgW = bg / float64(len(freqs))
	return p
}

// planeFor returns the grid's shared plane for a carrier plan, creating it
// on first use. Plans are matched by content, with a fast identity check
// for the common case of one shared frequency slice per deployment.
func (g *Grid) planeFor(freqs []float64) *Plane {
	for _, p := range g.planes {
		if sameFreqs(p.freqs, freqs) {
			return p
		}
	}
	p := newPlane(g, freqs)
	g.planes = append(g.planes, p)
	return p
}

func sameFreqs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	if &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureAppliances grows the per-appliance shared state to cover every
// appliance currently plugged into the grid. Caller holds p.mu.
func (p *Plane) ensureAppliances() {
	for i := len(p.app); i < len(p.g.Appliances); i++ {
		a := p.g.Appliances[i]
		s := applianceShared{
			coeffOn:  bounceGain * a.ReflectionCoeff(p.g.Z0, true),
			coeffOff: bounceGain * a.ReflectionCoeff(p.g.Z0, false),
			tapOn:    1 - applianceTapLossFactor*a.ReflectionCoeff(p.g.Z0, true),
			tapOff:   1 - applianceTapLossFactor*a.ReflectionCoeff(p.g.Z0, false),
		}
		for sl := 0; sl < mains.Slots; sl++ {
			s.slotMul[sl] = math.Pow(10, a.Class.SlotProfileDB[sl]/10)
		}
		p.app = append(p.app, s)
		p.shiftOK = append(p.shiftOK, false)
		p.shiftVal = append(p.shiftVal, 0)
		p.flicker = append(p.flicker, flickerMemo{})
		if a.Class.FlickerDB != 0 || a.Class.ImpulseDB != 0 {
			p.volatileBits |= 1 << uint(i)
		}
	}
}

// maskAt returns the appliance state mask at t via the grid's
// mask-transition timeline — an interval lookup, never a schedule walk
// (the former per-instant memo is subsumed by the timeline: any two
// instants in one transition interval share the mask by construction).
func (p *Plane) maskAt(t time.Duration) uint64 {
	m, _, _, _ := p.g.maskIntervalAt(t)
	return m
}

// syncShift readies the shift-factor cache for instant t. When the caller
// knows the start of the mask interval containing t (a link's cached
// Advance interval), it passes it with ivKnown; otherwise the plane reads
// the grid's timeline. Caller holds p.mu (one lock spans a whole ShiftDB
// pass, not one per appliance). Lock order: p.mu, then the grid's tlMu.
//
// Quiet-interval proof: ImpulseBoostDB samples each appliance's state at
// t and at t−100ms … t−ImpulseDuration. If the mask has held since at or
// before t−ImpulseDuration, every sample sees the same state, so every
// impulse is exactly 0 and the per-instant pass skips the schedule walks.
// Interval starts are conservative (a horizon restart reports its own
// start, negative instants have no interval), which can only route an
// instant to the sampled fallback, never produce a wrong zero.
func (p *Plane) syncShift(t, ivStart time.Duration, ivKnown bool) {
	if p.shiftInit && t == p.shiftT {
		return
	}
	p.shiftT = t
	p.shiftInit = true
	for j := range p.shiftOK {
		p.shiftOK[j] = false
	}
	if !ivKnown {
		ivStart, ivKnown = p.g.coveredIntervalStart(t)
	}
	p.shiftQuiet = ivKnown && t-ivStart >= ImpulseDuration
}

// shiftFactor returns 10^((flicker+impulse)/10) of appliance i at t —
// the per-appliance fast-noise factor of ShiftDB, evaluated once per
// instant for the whole grid. The impulse term is the sampled
// ImpulseBoostDB only when syncShift could not prove it zero, and the
// flicker term reuses the appliance's memoised block draws; both land on
// the same bits as Appliance.FlickerDB + Appliance.ImpulseBoostDB
// (TestShiftFactorMatchesReference). Caller holds p.mu and has called
// syncShift(t).
func (p *Plane) shiftFactor(t time.Duration, i int) float64 {
	if !p.shiftOK[i] {
		a := p.g.Appliances[i]
		var impulse float64
		if !p.shiftQuiet {
			impulse = a.ImpulseBoostDB(t)
		}
		db := p.flickerDB(t, i) + impulse
		p.shiftVal[i] = math.Pow(10, db/10)
		p.shiftOK[i] = true
	}
	return p.shiftVal[i]
}

// flickerDB is Appliance.FlickerDB of appliance i at t, drawing each
// block's Gaussian once: a query in the memoised block reuses both
// draws, one in the next block inherits the old g1 as its g0 (the same
// draw, Gaussian(id, block+1)), and any other jump draws afresh.
// Caller holds p.mu.
func (p *Plane) flickerDB(t time.Duration, i int) float64 {
	a := p.g.Appliances[i]
	if a.Class.FlickerDB == 0 {
		return 0
	}
	block, frac := flickerPhase(t)
	m := &p.flicker[i]
	switch {
	case m.ok && block == m.block:
	case m.ok && block == m.block+1:
		m.g0, m.g1 = m.g1, a.flickerDraw(block+1)
	default:
		m.g0, m.g1 = a.flickerDraw(block), a.flickerDraw(block+1)
	}
	m.block, m.ok = block, true
	return flickerMix(a.Class.FlickerDB, m.g0, m.g1, frac)
}

// invalidateGeometry drops cached pair/site geometry after the cable
// graph changes (mirrors the grid's shortest-path cache invalidation).
func (p *Plane) invalidateGeometry() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pairs = make(map[pairKey]*pairEntry)
	p.sites = make(map[NodeID]*rxSite)
}

// invalidateSchedule resets per-instant schedule-derived caches after the
// appliance population changes. The mask timeline itself lives on the
// Grid (invalidateTimeline); what remains plane-side is the per-instant
// factor cache and its quiet-interval proof, both derived from the old
// mask function. The flicker memo survives: an appliance's draws depend
// only on its identity, and new appliances start with an empty memo.
func (p *Plane) invalidateSchedule() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shiftInit = false
}

// pairSymmetric reports whether the appliance reflection geometry of a
// pair is bitwise identical in both orientations, so one pairCore can
// serve both directions.
//
// Mathematically it always is; at the floating-point level it usually is
// but not provably: shortest-path distances accumulate cable segments
// outward from the source, so Dist(a,b) and Dist(b,a) sum the same
// segments in opposite order and can disagree in the last bit. The
// per-appliance sums dTx+dRx are safe by commutativity (the same two row
// values, swapped); what must be checked is the direct distance (the
// on-path threshold) and the tap-loss sums. When the check fails the
// plane builds one core per direction — bit-exactness is never traded
// for sharing.
func (p *Plane) pairSymmetric(lo, hi NodeID) bool {
	g := p.g
	if g.rawDist(lo, hi) != g.rawDist(hi, lo) {
		return false
	}
	for _, a := range g.Appliances {
		dLo, dHi := g.rawDist(lo, a.Node), g.rawDist(hi, a.Node)
		if math.IsInf(dLo, 1) || math.IsInf(dHi, 1) {
			continue
		}
		fwd := g.tapSumDB(lo, a.Node) + g.tapSumDB(a.Node, hi)
		rev := g.tapSumDB(hi, a.Node) + g.tapSumDB(a.Node, lo)
		if fwd != rev {
			return false
		}
	}
	return true
}

// pairCoreFor returns the appliance reflection geometry for the directed
// tx→rx link, sharing one core per undirected pair whenever the pair is
// bitwise symmetric. Cores are rebuilt if the appliance population grew
// since they were cached. Only the cheap reach/onPath geometry (distance
// lookups and bitmasks) is built here; the per-carrier phasors
// materialise on first SNR read (ensureVec).
func (p *Plane) pairCoreFor(tx, rx NodeID) *pairCore {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureAppliances()
	lo, hi := tx, rx
	if lo > hi {
		lo, hi = hi, lo
	}
	key := pairKey{lo, hi}
	na := len(p.g.Appliances)
	e, ok := p.pairs[key]
	if !ok {
		e = &pairEntry{}
		p.pairs[key] = e
	}
	if !ok || e.symNA != na {
		// (Re)check symmetry whenever the appliance population changed:
		// a later Plug can make a previously symmetric pair asymmetric.
		e.symmetric = p.pairSymmetric(lo, hi)
		e.symNA = na
	}
	if e.symmetric || tx == lo {
		if e.fwd == nil || e.fwd.na != na {
			e.fwd = p.buildPairGeom(tx, rx)
		}
		return e.fwd
	}
	if e.rev == nil || e.rev.na != na {
		e.rev = p.buildPairGeom(tx, rx)
	}
	return e.rev
}

// buildPairGeom computes the cheap part of a directed pair's appliance
// geometry: on-path flags, reachability, and their bitmask mirrors.
func (p *Plane) buildPairGeom(tx, rx NodeID) *pairCore {
	g := p.g
	na := len(g.Appliances)
	pc := &pairCore{
		tx:     tx,
		rx:     rx,
		onPath: make([]bool, na),
		reach:  make([]bool, na),
		na:     na,
		n:      len(p.freqs),
	}
	for i, a := range g.Appliances {
		dTx := g.rawDist(tx, a.Node)
		dRx := g.rawDist(rx, a.Node)
		pc.onPath[i] = !math.IsInf(dTx, 1) && !math.IsInf(dRx, 1) &&
			dTx+dRx <= g.rawDist(tx, rx)+1.0
		if pc.onPath[i] {
			pc.onPathBits |= 1 << uint(i)
		}
		if math.IsInf(dTx, 1) || math.IsInf(dRx, 1) {
			continue // appliance electrically unreachable
		}
		pc.reach[i] = true
		pc.reachBits |= 1 << uint(i)
	}
	return pc
}

// ensureVec materialises the per-carrier multipath phasors of a pair core
// (first bounce plus second-order echo per reachable appliance). The
// computation is identical, value for value, to the historical eager
// build; only its timing moved to the first SNR materialisation of a
// link over this pair.
func (p *Plane) ensureVec(pc *pairCore) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc.pathVec != nil {
		return
	}
	g := p.g
	n := pc.n
	vec := make([]complex128, pc.na*n)
	for i, a := range g.Appliances[:pc.na] {
		if !pc.reach[i] {
			continue
		}
		dTx := g.rawDist(pc.tx, a.Node)
		dRx := g.rawDist(pc.rx, a.Node)
		dRefl := dTx + dRx + stubExtraM
		lossDB := g.tapSumDB(pc.tx, a.Node) + g.tapSumDB(a.Node, pc.rx)
		sign := a.ReflectionSign()
		row := vec[i*n : (i+1)*n]
		for c, f := range p.freqs {
			base := math.Pow(10, -(attDB(f, dRefl)+lossDB)/20)
			p1 := -2 * math.Pi * f * dRefl / propVelocity
			a2 := math.Pow(10, -(attDB(f, dRefl+echoExtraM)+lossDB)/20)
			p2 := -2 * math.Pi * f * (dRefl + echoExtraM) / propVelocity
			row[c] = complex(sign, 0) *
				(cmplx.Rect(base, p1) + complex(echoGain, 0)*cmplx.Rect(a2, p2))
		}
	}
	pc.pathVec = vec
}

// siteFor returns the receiver-side noise geometry at an outlet, shared
// by every link towards it.
func (p *Plane) siteFor(rx NodeID) *rxSite {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureAppliances()
	na := len(p.g.Appliances)
	if s, ok := p.sites[rx]; ok && s.na == na {
		return s
	}
	g := p.g
	n := len(p.freqs)
	s := &rxSite{
		noiseVec: make([]float64, na*n),
		noiseW:   make([]float64, na),
		na:       na,
		n:        n,
	}
	for i, a := range g.Appliances {
		dRx := g.rawDist(rx, a.Node)
		if math.IsInf(dRx, 1) {
			continue // noise source electrically unreachable
		}
		noiseLossDB := g.tapSumDB(a.Node, rx)
		row := s.row(i)
		var wsum float64
		for c, f := range p.freqs {
			lin := math.Pow(10, (a.Class.NoiseDBmHz-attDB(f, dRx)-noiseLossDB)/10)
			row[c] = lin
			wsum += lin
		}
		s.noiseW[i] = wsum / float64(n)
		if s.noiseW[i] != 0 {
			s.wBits |= 1 << uint(i)
		}
	}
	p.sites[rx] = s
	return s
}
