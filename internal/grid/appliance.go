package grid

import (
	"time"

	"repro/internal/detrand"
	"repro/internal/mains"
)

// ScheduleKind selects the on/off pattern of an appliance. All schedules
// are pure functions of virtual time (plus the appliance identity), so the
// grid state at any instant is computable without replaying events.
type ScheduleKind int

const (
	// AlwaysOn appliances never switch (network gear, standby bricks).
	AlwaysOn ScheduleKind = iota
	// OfficeHours appliances run roughly 8:30-18:30 on weekdays with a
	// per-day jittered start/stop (desktop PCs, monitors, printers).
	OfficeHours
	// Lights follow the building lighting: on 7:30-21:00 on weekdays,
	// off at 21:00 sharp — the event visible in the paper's Fig. 12 —
	// and off on weekends.
	Lights
	// RandomDuty appliances switch on and off in random blocks, more
	// often during working hours (kettles, chargers, lab equipment).
	RandomDuty
	// Compressor appliances cycle with a fixed period and duty (fridges,
	// water coolers); they run on weekends too.
	Compressor
)

// randomDutyCell is the granularity of RandomDuty switching decisions.
const randomDutyCell = 10 * time.Minute

// ApplianceClass captures the electrical personality of a device type:
// how badly it mismatches the line impedance (spatial effect: reflections
// and attenuation) and how much noise it injects (temporal effect: per-slot
// synchronous noise, flicker, switching impulses).
type ApplianceClass struct {
	Name string

	// ImpedanceOhms is the device's high-frequency impedance. The
	// mismatch against the cable's characteristic impedance determines
	// the reflection coefficient used by the multipath channel model.
	ImpedanceOhms float64

	// NoiseDBmHz is the broadband noise PSD the device injects at its
	// outlet when on, in dBm/Hz (before line attenuation towards the
	// receiver).
	NoiseDBmHz float64

	// SlotProfileDB gives the per-tone-map-slot noise offset in dB.
	// Devices synchronous with the mains (dimmers, power supplies) are
	// louder in some sub-intervals of the cycle — the origin of the
	// paper's invariance-scale variation (§6.1).
	SlotProfileDB [mains.Slots]float64

	// FlickerDB is the standard deviation, in dB, of the second-scale
	// random modulation of the device's noise (the cycle-scale process
	// ν_σ of §6).
	FlickerDB float64

	// ImpulseDB is the extra noise, in dB, radiated for ImpulseDuration
	// after the device switches on or off.
	ImpulseDB float64

	Schedule ScheduleKind
}

// ImpulseDuration is how long a switching transient elevates noise.
const ImpulseDuration = 700 * time.Millisecond

// flickerBlock is the correlation time of appliance noise flicker.
const flickerBlock = time.Second

// Standard appliance classes populating the office testbed. Noise levels
// and impedances are representative values from the PLC noise literature
// (e.g. Guzelgoz et al., ref [9] of the paper): dimmers and switched-mode
// supplies are the loud, mains-synchronous offenders; resistive loads are
// quiet but present significant impedance mismatch.
var (
	ClassRouter = &ApplianceClass{
		Name: "router", ImpedanceOhms: 60, NoiseDBmHz: -132,
		FlickerDB: 0.6, ImpulseDB: 4, Schedule: AlwaysOn,
	}
	ClassDesktopPC = &ApplianceClass{
		Name: "desktop-pc", ImpedanceOhms: 35, NoiseDBmHz: -116,
		SlotProfileDB: [mains.Slots]float64{0, 1.5, 3, 3, 1.5, 0},
		FlickerDB:     2.0, ImpulseDB: 10, Schedule: OfficeHours,
	}
	ClassFluorescent = &ApplianceClass{
		Name: "fluorescent-light", ImpedanceOhms: 25, NoiseDBmHz: -112,
		SlotProfileDB: [mains.Slots]float64{5, 2, 0, 0, 2, 5},
		FlickerDB:     2.5, ImpulseDB: 12, Schedule: Lights,
	}
	ClassDimmer = &ApplianceClass{
		Name: "dimmer", ImpedanceOhms: 15, NoiseDBmHz: -104,
		SlotProfileDB: [mains.Slots]float64{8, 3, -2, -2, 3, 8},
		FlickerDB:     3.5, ImpulseDB: 14, Schedule: Lights,
	}
	ClassPhoneCharger = &ApplianceClass{
		Name: "phone-charger", ImpedanceOhms: 45, NoiseDBmHz: -120,
		SlotProfileDB: [mains.Slots]float64{1, 2, 2, 1, 0, 0},
		FlickerDB:     1.5, ImpulseDB: 8, Schedule: RandomDuty,
	}
	ClassKettle = &ApplianceClass{
		Name: "kettle", ImpedanceOhms: 20, NoiseDBmHz: -118,
		FlickerDB: 1.0, ImpulseDB: 12, Schedule: RandomDuty,
	}
	ClassFridge = &ApplianceClass{
		Name: "fridge", ImpedanceOhms: 30, NoiseDBmHz: -114,
		SlotProfileDB: [mains.Slots]float64{2, 2, 0, 0, 2, 2},
		FlickerDB:     1.8, ImpulseDB: 13, Schedule: Compressor,
	}
	ClassServerRack = &ApplianceClass{
		Name: "server-rack", ImpedanceOhms: 22, NoiseDBmHz: -106,
		SlotProfileDB: [mains.Slots]float64{2, 3, 1, 1, 3, 2},
		FlickerDB:     3.2, ImpulseDB: 6, Schedule: AlwaysOn,
	}
	ClassVendingMachine = &ApplianceClass{
		Name: "vending-machine", ImpedanceOhms: 26, NoiseDBmHz: -107,
		SlotProfileDB: [mains.Slots]float64{3, 1, 0, 0, 1, 3},
		FlickerDB:     2.8, ImpulseDB: 12, Schedule: Compressor,
	}
	ClassLabEquipment = &ApplianceClass{
		Name: "lab-equipment", ImpedanceOhms: 18, NoiseDBmHz: -107,
		SlotProfileDB: [mains.Slots]float64{4, 1, 0, 1, 4, 6},
		FlickerDB:     3.0, ImpulseDB: 12, Schedule: RandomDuty,
	}
)

// Appliance is one device plugged into one outlet of the grid.
type Appliance struct {
	Class *ApplianceClass
	Node  NodeID
	// id disambiguates appliances sharing class and node in the
	// deterministic schedule hashing.
	id   uint64
	seed int64
}

// dutyProbability is the chance a RandomDuty appliance is on in a given
// cell, by regime.
func dutyProbability(t time.Duration) float64 {
	if IsWorkingHours(t) {
		return 0.45
	}
	if IsWeekend(t) {
		return 0.06
	}
	return 0.10 // weekday night
}

// On reports whether the appliance is powered at time t.
func (a *Appliance) On(t time.Duration) bool {
	switch a.Class.Schedule {
	case AlwaysOn:
		return true
	case OfficeHours:
		if IsWeekend(t) {
			return false
		}
		start, stop := a.officeWindow(DayIndex(t))
		tod := TimeOfDay(t)
		return tod >= start && tod < stop
	case Lights:
		if IsWeekend(t) {
			return false
		}
		tod := TimeOfDay(t)
		return tod >= 7*time.Hour+30*time.Minute && tod < 21*time.Hour
	case RandomDuty:
		cell := uint64(t / randomDutyCell)
		return detrand.Bool(dutyProbability(t), a.id, cell, 0xd07)
	case Compressor:
		period, duty, phase := a.compressorParams()
		pos := (t + phase) % period
		return pos < time.Duration(duty*float64(period))
	}
	return false
}

// officeWindow gives the jittered on/off times for an OfficeHours appliance
// on the given day.
func (a *Appliance) officeWindow(day int64) (start, stop time.Duration) {
	js := detrand.UniformRange(-45, 45, a.id, uint64(day), 0x0ff1ce)
	je := detrand.UniformRange(-60, 90, a.id, uint64(day), 0x0ff1ce+1)
	start = 8*time.Hour + 30*time.Minute + time.Duration(js)*time.Minute
	stop = 18*time.Hour + 30*time.Minute + time.Duration(je)*time.Minute
	return start, stop
}

func (a *Appliance) compressorParams() (period time.Duration, duty float64, phase time.Duration) {
	period = time.Duration(detrand.UniformRange(35, 55, a.id, 0xc0))*time.Minute + time.Minute
	duty = detrand.UniformRange(0.25, 0.45, a.id, 0xc1)
	phase = time.Duration(detrand.Uniform(a.id, 0xc2) * float64(period))
	return period, duty, phase
}

// LastSwitch returns the time of the most recent on/off transition at or
// before t, and whether one exists within the lookback window. It is used
// to model switching impulse noise.
func (a *Appliance) LastSwitch(t time.Duration, lookback time.Duration) (time.Duration, bool) {
	// Sampling at sub-impulse granularity is exact enough for cell and
	// window schedules and a close approximation for compressors.
	const step = 100 * time.Millisecond
	state := a.On(t)
	for back := step; back <= lookback; back += step {
		if a.On(t-back) != state {
			// Transition within (t-back, t-back+step].
			return t - back + step, true
		}
	}
	return 0, false
}

// ImpulseBoostDB returns the extra noise (dB) currently radiated because of
// a recent switching transient, decaying linearly over ImpulseDuration.
func (a *Appliance) ImpulseBoostDB(t time.Duration) float64 {
	if a.Class.ImpulseDB == 0 {
		return 0
	}
	sw, ok := a.LastSwitch(t, ImpulseDuration)
	if !ok {
		return 0
	}
	frac := 1 - float64(t-sw)/float64(ImpulseDuration)
	if frac < 0 {
		return 0
	}
	return a.Class.ImpulseDB * frac
}

// FlickerDB returns the random second-scale modulation of the appliance's
// noise at time t, in dB. Consecutive blocks are linearly interpolated so
// the process is continuous.
func (a *Appliance) FlickerDB(t time.Duration) float64 {
	if a.Class.FlickerDB == 0 {
		return 0
	}
	block, frac := flickerPhase(t)
	return flickerMix(a.Class.FlickerDB, a.flickerDraw(block), a.flickerDraw(block+1), frac)
}

// flickerPhase locates t on the flicker grid: the block it falls in and
// the interpolation weight of the next block's draw.
func flickerPhase(t time.Duration) (block uint64, frac float64) {
	return uint64(t / flickerBlock), float64(t%flickerBlock) / float64(flickerBlock)
}

// flickerDraw is the appliance's standard-normal flicker draw at the
// start of a block.
func (a *Appliance) flickerDraw(block uint64) float64 {
	return detrand.Gaussian(a.id, block, 0xf11c)
}

// flickerMix interpolates the draws bracketing t into the flicker in dB.
// It is the one expression behind both FlickerDB and the plane's memoised
// kernel, so the two agree bit for bit.
func flickerMix(sigmaDB, g0, g1, frac float64) float64 {
	return sigmaDB * (g0*(1-frac) + g1*frac)
}

// ReflectionCoeff returns the magnitude of the reflection coefficient the
// appliance presents to the line when on, based on its impedance mismatch
// with the cable characteristic impedance z0. Off appliances present a
// high-impedance (weakly reflecting) tap.
func (a *Appliance) ReflectionCoeff(z0 float64, on bool) float64 {
	if !on {
		return 0.08
	}
	g := (a.Class.ImpedanceOhms - z0) / (a.Class.ImpedanceOhms + z0)
	if g < 0 {
		g = -g
	}
	return g
}

// ReflectionSign gives the deterministic sign of the appliance's reflection
// contribution (phase inversion depends on geometry we do not model).
func (a *Appliance) ReflectionSign() float64 {
	return detrand.Sign(a.id, 0x51f)
}
