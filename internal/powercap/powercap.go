// Package powercap emulates the Linux powercap sysfs interface
// (/sys/class/powercap/intel-rapl:0) over the same emulated MSR device
// the register-level path drives. Production power managers
// increasingly actuate RAPL through this tree instead of msr-safe: the
// kernel's intel_rapl driver exposes the package PL1 constraint as
// µW-granularity decimal files, the energy counter as a wrapping
// energy_uj value, and an enabled toggle — all with file-I/O failure
// modes raw register access does not have (EAGAIN under contention,
// silently truncated short writes, stale energy snapshots, permission
// flips from udev/tmpfiles races, whole-zone ENOENT across a driver
// rebind).
//
// The Zone is a faithful file-level façade: every read and write goes
// through the underlying msr.Device (writes through the whitelist and
// the write-sequence the deadman watches, so a cap programmed via
// sysfs re-arms the lease exactly like a register write), and the
// kernel's quantization is reproduced — power limits floor to the
// register unit where the raw-MSR path rounds to nearest, which is why
// the two backends are distinct cache keys upstream.
package powercap

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"progresscap/internal/msr"
)

// Zone file names, mirroring the kernel's intel-rapl constraint-0
// (long-term / PL1) attribute set.
const (
	// FileName identifies the zone ("package-0"); read-only.
	FileName = "name"
	// FileEnabled is the zone's enable toggle ("0"/"1").
	FileEnabled = "enabled"
	// FilePowerLimitUW is the PL1 limit in microwatts, decimal.
	FilePowerLimitUW = "constraint_0_power_limit_uw"
	// FileTimeWindowUS is the PL1 averaging window in microseconds.
	FileTimeWindowUS = "constraint_0_time_window_us"
	// FileEnergyUJ is the wrapping energy counter in microjoules;
	// read-only.
	FileEnergyUJ = "energy_uj"
	// FileMaxEnergyRangeUJ is the wrap modulus of energy_uj; read-only.
	FileMaxEnergyRangeUJ = "max_energy_range_uj"
)

// Errno is a sysfs access error with the transient/permanent split the
// hardened actuator's retry classifier keys on. It implements the
// conventional Temporary() predicate.
type Errno struct {
	name      string
	temporary bool
}

func (e *Errno) Error() string { return "powercap: " + e.name }

// Temporary reports whether retrying the access can succeed without
// operator intervention.
func (e *Errno) Temporary() bool { return e.temporary }

// Sysfs access errors. ErrAgain and ErrIO are transient (retryable);
// ErrPerm, ErrNoEnt, and ErrInval are permanent for the current access.
var (
	ErrAgain = &Errno{name: "resource temporarily unavailable (EAGAIN)", temporary: true}
	ErrIO    = &Errno{name: "I/O error (EIO)", temporary: true}
	ErrPerm  = &Errno{name: "permission denied (EACCES)"}
	ErrNoEnt = &Errno{name: "no such file or directory (ENOENT)"}
	ErrInval = &Errno{name: "invalid argument (EINVAL)"}
)

// FaultOp distinguishes reads from writes for the fault hook.
type FaultOp int

// Fault hook operations.
const (
	OpRead FaultOp = iota
	OpWrite
)

// FaultClass is the fault a hook asks the zone to exhibit for one file
// access.
type FaultClass int

// Injectable access faults.
const (
	// FaultNone performs the access normally.
	FaultNone FaultClass = iota
	// FaultAgain fails the access with ErrAgain.
	FaultAgain
	// FaultEIO fails the access with ErrIO.
	FaultEIO
	// FaultTruncate latches only a prefix of the written digits (a short
	// write), silently programming a far smaller limit; the write
	// "succeeds" with a short byte count. Only meaningful for writes to
	// FilePowerLimitUW; otherwise behaves like FaultNone.
	FaultTruncate
	// FaultStale serves the previous successful read's value instead of
	// the current one. Only meaningful for reads of FileEnergyUJ.
	FaultStale
	// FaultPerm fails the access with ErrPerm (a permission flip).
	FaultPerm
	// FaultGone fails the access with ErrNoEnt (the zone's files have
	// transiently disappeared across a driver unbind/rebind).
	FaultGone
)

// FaultHook lets a fault-injection layer perturb individual file
// accesses. It must be deterministic for reproducible runs; now is the
// virtual time of the access, so window faults need no hook state.
type FaultHook func(op FaultOp, file string, now time.Duration) FaultClass

// Zone is the emulated powercap control-zone directory for one
// package. It is safe for concurrent use.
type Zone struct {
	mu sync.Mutex
	// dev is wiring, units construction configuration, and hook the
	// run's fault layer's.
	dev   *msr.Device `snap:"-"`
	units msr.Units   `snap:"-"`
	hook  FaultHook   `snap:"-"`

	staleEnergy uint64
	staleSeen   bool

	reads, writes uint64
}

// NewZone returns a zone façade over the device. The units must match
// the device's RAPL unit register; they are passed in rather than read
// so zone construction never touches the device (and so never perturbs
// a fault-injection RNG stream).
func NewZone(dev *msr.Device, u msr.Units) *Zone {
	if dev == nil {
		panic("powercap: nil device")
	}
	return &Zone{dev: dev, units: u}
}

// SetFaultHook installs (or, with nil, removes) the access fault hook.
// Without a hook the zone behaves perfectly.
func (z *Zone) SetFaultHook(h FaultHook) {
	z.mu.Lock()
	z.hook = h
	z.mu.Unlock()
}

// Counts returns the number of file reads and writes attempted, for
// monitoring-overhead accounting.
func (z *Zone) Counts() (reads, writes uint64) {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.reads, z.writes
}

// MaxEnergyRangeUJ returns the wrap modulus of energy_uj: the µJ image
// of a full 32-bit counter revolution at the zone's energy unit.
func (z *Zone) MaxEnergyRangeUJ() uint64 {
	return (uint64(1) << 32) * 1_000_000 >> z.units.EnergyBits
}

// ReadFile returns the contents of a zone file (with the trailing
// newline sysfs emits) at the given virtual time.
func (z *Zone) ReadFile(now time.Duration, name string) (string, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.reads++
	class := FaultNone
	if z.hook != nil {
		class = z.hook(OpRead, name, now)
	}
	switch class {
	case FaultGone:
		return "", ErrNoEnt
	case FaultPerm:
		return "", ErrPerm
	case FaultAgain:
		return "", ErrAgain
	case FaultEIO:
		return "", ErrIO
	}
	switch name {
	case FileName:
		return "package-0\n", nil
	case FileMaxEnergyRangeUJ:
		return formatUint(z.MaxEnergyRangeUJ()), nil
	case FileEnabled:
		pl1, err := z.readPL1()
		if err != nil {
			return "", err
		}
		if pl1.Enabled {
			return "1\n", nil
		}
		return "0\n", nil
	case FilePowerLimitUW:
		reg, err := z.dev.Read(msr.PkgPowerLimit)
		if err != nil {
			return "", err
		}
		raw := reg & 0x7FFF
		return formatUint(raw * 1_000_000 >> z.units.PowerBits), nil
	case FileTimeWindowUS:
		pl1, err := z.readPL1()
		if err != nil {
			return "", err
		}
		return formatUint(uint64(pl1.WindowSeconds*1e6 + 0.5)), nil
	case FileEnergyUJ:
		raw, err := z.dev.Read(msr.PkgEnergyStatus)
		if err != nil {
			return "", err
		}
		uj := (raw & 0xFFFFFFFF) * 1_000_000 >> z.units.EnergyBits
		if class == FaultStale && z.staleSeen {
			return formatUint(z.staleEnergy), nil
		}
		z.staleEnergy = uj
		z.staleSeen = true
		return formatUint(uj), nil
	}
	return "", ErrNoEnt
}

// WriteFile stores data into a zone file at the given virtual time,
// returning the number of bytes accepted. A short count with a nil
// error is a silently truncated write — exactly how a faulting sysfs
// store manifests to callers that do not verify by reading back.
func (z *Zone) WriteFile(now time.Duration, name, data string) (int, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.writes++
	class := FaultNone
	if z.hook != nil {
		class = z.hook(OpWrite, name, now)
	}
	switch class {
	case FaultGone:
		return 0, ErrNoEnt
	case FaultPerm:
		return 0, ErrPerm
	case FaultAgain:
		return 0, ErrAgain
	case FaultEIO:
		return 0, ErrIO
	}
	switch name {
	case FileName, FileEnergyUJ, FileMaxEnergyRangeUJ:
		return 0, ErrPerm
	case FileEnabled:
		var on bool
		switch strings.TrimSpace(data) {
		case "0":
			on = false
		case "1":
			on = true
		default:
			return 0, ErrInval
		}
		pl1, err := z.readPL1()
		if err != nil {
			return 0, err
		}
		pl1.Enabled, pl1.Clamp = on, on
		if err := z.writePL1(pl1); err != nil {
			return 0, err
		}
		return len(data), nil
	case FilePowerLimitUW:
		digits := strings.TrimSpace(data)
		uw, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return 0, ErrInval
		}
		n := len(data)
		if class == FaultTruncate && len(digits) > 1 {
			keep := (len(digits) + 1) / 2
			uw, _ = strconv.ParseUint(digits[:keep], 10, 64)
			n = keep
		}
		// The kernel quantizes by integer division: floor to the register
		// power unit. The raw-MSR path rounds to nearest instead, which is
		// why the two backends must be distinct result-cache keys.
		const maxUW = uint64(1) << 50 // keeps the shift below from overflowing
		if uw > maxUW {
			uw = maxUW
		}
		raw := uw << z.units.PowerBits / 1_000_000
		if raw > 0x7FFF {
			raw = 0x7FFF
		}
		reg, err := z.dev.Read(msr.PkgPowerLimit)
		if err != nil {
			return 0, err
		}
		nv := reg&^uint64(0x7FFF) | raw
		if err := z.dev.Write(msr.PkgPowerLimit, nv); err != nil {
			return 0, err
		}
		return n, nil
	case FileTimeWindowUS:
		us, err := strconv.ParseUint(strings.TrimSpace(data), 10, 64)
		if err != nil {
			return 0, ErrInval
		}
		pl1, err := z.readPL1()
		if err != nil {
			return 0, err
		}
		pl1.WindowSeconds = float64(us) / 1e6
		if err := z.writePL1(pl1); err != nil {
			return 0, err
		}
		return len(data), nil
	}
	return 0, ErrNoEnt
}

// readPL1 decodes the PL1 window of the power-limit register.
// Callers hold z.mu; the device has its own lock.
func (z *Zone) readPL1() (msr.PowerLimit, error) {
	reg, err := z.dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return msr.PowerLimit{}, err
	}
	return msr.DecodePowerLimit(reg&0xFFFFFFFF, z.units), nil
}

// writePL1 re-encodes the PL1 window, preserving the PL2 half.
func (z *Zone) writePL1(pl1 msr.PowerLimit) error {
	reg, err := z.dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return err
	}
	nv := reg&^uint64(0xFFFFFFFF) | msr.EncodePowerLimit(pl1, z.units)
	return z.dev.Write(msr.PkgPowerLimit, nv)
}

func formatUint(v uint64) string {
	return strconv.FormatUint(v, 10) + "\n"
}
