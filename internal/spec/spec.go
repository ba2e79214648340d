// Package spec defines the declarative, content-addressed scenario
// language the soak harness and the experiment cache share.
//
// A Scenario describes one complete simulation — workload mix, operating
// point (capping scheme or pinned DVFS), fleet shape, fault plan,
// partition and manager-kill schedule, and lease/budget parameters — as
// plain data. Scenarios have a canonical serialization (deterministic
// JSON: fixed struct field order, sorted map keys, shortest-round-trip
// floats) and therefore a content hash; two equal hashes denote
// byte-identical simulations. The hash is the key of the disk-backed
// result cache in internal/experiments and the identity of regression
// corpus entries in internal/soak.
//
// Scenarios come from three places: hand-written JSON files
// (cmd/experiments -spec), the seeded random Generate (cmd/soak), and
// the shrinker (ShrinkSteps), which proposes strictly simpler variants
// of a failing scenario. All three flow through Validate, which shares
// the fault-schedule validation with hand-built fault.Plans.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/fault"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
	"progresscap/internal/workload"
)

// Version is the spec schema version. It participates in the content
// hash, so a schema change invalidates every cached result and corpus
// hash at once instead of silently aliasing old entries.
const Version = 1

// Manager names a cluster scenario's fault plan may reference. They
// mirror cluster.PrimaryManager / cluster.StandbyManager (asserted by a
// cross-package test) without making spec depend on the cluster package.
const (
	PrimaryManager = "m0"
	StandbyManager = "m1"
)

// MaxHorizonSec bounds scenario length so a generated or hand-written
// spec cannot ask for an unbounded simulation.
const MaxHorizonSec = 120

// WorkloadSpec names one application from the registry
// (internal/apps.Registry) scaled to roughly Seconds of virtual time.
type WorkloadSpec struct {
	App     string  `json:"app"`
	Seconds float64 `json:"seconds"`
}

// Build constructs the workload. Each call returns a fresh instance —
// required by the Runner, whose generators carry per-instance state.
func (w WorkloadSpec) Build() (*workload.Workload, error) {
	info, err := apps.Lookup(w.App)
	if err != nil {
		return nil, err
	}
	if !info.Runnable() {
		return nil, fmt.Errorf("spec: application %q has no workload model", w.App)
	}
	return info.Build(w.Seconds), nil
}

// SchemeSpec is a declarative policy.Scheme: Kind selects the scheme,
// the remaining fields parameterize it. Unused fields must be zero (they
// still participate in the hash).
type SchemeSpec struct {
	// Kind is one of "uncapped", "constant", "linear", "step", "jagged".
	// The empty string means uncapped.
	Kind string `json:"kind,omitempty"`

	Watts float64 `json:"watts,omitempty"` // constant

	DelaySec    float64 `json:"delay_sec,omitempty"`        // linear
	StartW      float64 `json:"start_w,omitempty"`          // linear, jagged
	MinW        float64 `json:"min_w,omitempty"`            // linear
	RateWPerSec float64 `json:"rate_w_per_sec,omitempty"`   // linear
	HighW       float64 `json:"high_w,omitempty"`           // step
	LowW        float64 `json:"low_w,omitempty"`            // step, jagged
	HighForSec  float64 `json:"high_for_sec,omitempty"`     // step
	LowForSec   float64 `json:"low_for_sec,omitempty"`      // step
	FallForSec  float64 `json:"fall_for_sec,omitempty"`     // jagged
	UncappedSec float64 `json:"uncapped_for_sec,omitempty"` // jagged
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Uncapped reports whether the spec denotes no capping scheme.
func (s SchemeSpec) Uncapped() bool { return s.Kind == "" || s.Kind == "uncapped" }

// Build constructs the policy.Scheme, or nil for an uncapped run.
func (s SchemeSpec) Build() (policy.Scheme, error) {
	switch s.Kind {
	case "", "uncapped":
		return nil, nil
	case "constant":
		return policy.Constant{Watts: s.Watts}, nil
	case "linear":
		return policy.Linear{Delay: secs(s.DelaySec), StartW: s.StartW, MinW: s.MinW, RateWPerSec: s.RateWPerSec}, nil
	case "step":
		return policy.Step{HighW: s.HighW, LowW: s.LowW, HighFor: secs(s.HighForSec), LowFor: secs(s.LowForSec)}, nil
	case "jagged":
		return policy.Jagged{StartW: s.StartW, LowW: s.LowW, FallFor: secs(s.FallForSec), UncappedFor: secs(s.UncappedSec)}, nil
	default:
		return nil, fmt.Errorf("spec: unknown scheme kind %q", s.Kind)
	}
}

// Validate checks the parameters of the selected kind.
func (s SchemeSpec) Validate() error {
	switch s.Kind {
	case "", "uncapped":
		return nil
	case "constant":
		if s.Watts <= 0 {
			return fmt.Errorf("spec: constant scheme needs watts > 0, got %g", s.Watts)
		}
	case "linear":
		if s.DelaySec < 0 {
			return fmt.Errorf("spec: linear scheme delay %g s is negative", s.DelaySec)
		}
		if s.StartW <= 0 || s.MinW <= 0 || s.StartW < s.MinW {
			return fmt.Errorf("spec: linear scheme needs start_w >= min_w > 0, got %g/%g", s.StartW, s.MinW)
		}
		if s.RateWPerSec <= 0 {
			return fmt.Errorf("spec: linear scheme needs rate_w_per_sec > 0, got %g", s.RateWPerSec)
		}
	case "step":
		if s.HighW < 0 || s.LowW <= 0 {
			return fmt.Errorf("spec: step scheme needs high_w >= 0 and low_w > 0, got %g/%g", s.HighW, s.LowW)
		}
		if s.HighForSec <= 0 || s.LowForSec <= 0 {
			return fmt.Errorf("spec: step scheme needs positive hold durations, got %g/%g", s.HighForSec, s.LowForSec)
		}
	case "jagged":
		if s.StartW <= 0 || s.LowW <= 0 || s.StartW <= s.LowW {
			return fmt.Errorf("spec: jagged scheme needs start_w > low_w > 0, got %g/%g", s.StartW, s.LowW)
		}
		if s.FallForSec <= 0 || s.UncappedSec < 0 {
			return fmt.Errorf("spec: jagged scheme needs fall_for_sec > 0 and uncapped_for_sec >= 0, got %g/%g", s.FallForSec, s.UncappedSec)
		}
	default:
		return fmt.Errorf("spec: unknown scheme kind %q", s.Kind)
	}
	return nil
}

// OperatingPoint is what throttles the node(s): a capping scheme, a
// pinned DVFS frequency, or (in cluster scenarios) nothing — the lease
// arbiter owns the caps.
type OperatingPoint struct {
	Scheme SchemeSpec `json:"scheme"`
	// DVFSMHz, when positive, pins the frequency with RAPL in manual
	// mode; the scheme must then be uncapped. Single-node only.
	DVFSMHz float64 `json:"dvfs_mhz,omitempty"`
	// Backend selects the power-actuation path: "" or "msr" is the
	// register-level default (byte-identical to pre-backend scenarios,
	// and omitted from the canonical JSON), "sysfs" actuates through the
	// hardened actuator over the emulated powercap tree — which floors
	// caps to the register unit where the MSR path rounds, so the two
	// backends are distinct cache keys. Single-node only.
	Backend string `json:"backend,omitempty"`
}

// FleetSpec shapes the simulated fleet. Nodes == 1 runs one engine under
// the operating point; Nodes >= 2 runs the replicated leasing manager
// (internal/cluster.LeasedCluster) with the remaining fields.
type FleetSpec struct {
	Nodes int `json:"nodes"`
	// BudgetW is the cluster-wide power budget the lease arbiter divides
	// (cluster scenarios only). It must cover every node's quarantine
	// cap, or the boot caps alone would exceed it.
	BudgetW float64 `json:"budget_w,omitempty"`
	// QuarantineCapW is the safe cap a fenced or lease-lapsed node
	// reverts to (default cluster.DefaultQuarantineCapW).
	QuarantineCapW float64 `json:"quarantine_cap_w,omitempty"`
	// LeaseTTLEpochs bounds grant life in 1 s manager epochs (default 3).
	LeaseTTLEpochs int `json:"lease_ttl_epochs,omitempty"`
	// FailoverEpochs is how long the standby waits before takeover
	// (default 2).
	FailoverEpochs int `json:"failover_epochs,omitempty"`
}

// Scenario is one complete, declarative simulation description. The
// zero value is not a valid scenario; use Generate or build one by hand
// and Validate it.
type Scenario struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// Seed drives workload jitter and the engine RNG; node i of a
	// cluster scenario uses Seed+i.
	Seed uint64 `json:"seed"`
	// HorizonSec bounds the run in virtual seconds. Cluster scenarios
	// step one 1 s manager epoch at a time, so it is also the epoch
	// count.
	HorizonSec float64 `json:"horizon_sec"`
	// Workloads is the application mix; cluster node i runs entry
	// i mod len(Workloads). Single-node scenarios use exactly one entry.
	Workloads []WorkloadSpec `json:"workloads"`
	Operating OperatingPoint `json:"operating"`
	Fleet     FleetSpec      `json:"fleet"`
	// Faults embeds the full fault-injection plan: transport faults, MSR
	// and counter faults, node crash/slowdown, partitions, manager
	// kills/pauses. Durations are nanoseconds in the JSON encoding
	// (Go time.Duration), unlike the *_sec fields above.
	Faults fault.Plan `json:"faults"`
}

// Cluster reports whether the scenario runs the replicated leasing
// manager rather than a single capped engine.
func (s Scenario) Cluster() bool { return s.Fleet.Nodes >= 2 }

// NodeNames returns the fleet's node names: n0..n{Nodes-1}.
func (s Scenario) NodeNames() []string {
	names := make([]string, s.Fleet.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	return names
}

// Epochs returns the cluster scenario's epoch count.
func (s Scenario) Epochs() int { return int(s.HorizonSec) }

// Validate checks the whole scenario, including the embedded fault plan
// (shared with hand-built plans) and cross-field constraints like
// partition actors naming real nodes and the budget covering the boot
// caps.
func (s Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version %d, this build understands %d", s.Version, Version)
	}
	if s.Seed == 0 {
		return fmt.Errorf("spec: seed 0 is not a usable seed")
	}
	if s.HorizonSec <= 0 || s.HorizonSec > MaxHorizonSec {
		return fmt.Errorf("spec: horizon %g s outside (0, %d]", s.HorizonSec, MaxHorizonSec)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("spec: no workloads")
	}
	for i, w := range s.Workloads {
		if _, err := w.Build(); err != nil {
			return fmt.Errorf("spec: workload %d: %w", i, err)
		}
		if w.Seconds <= 0 || w.Seconds > MaxHorizonSec {
			return fmt.Errorf("spec: workload %d: %g s outside (0, %d]", i, w.Seconds, MaxHorizonSec)
		}
	}
	if err := s.Operating.Scheme.Validate(); err != nil {
		return err
	}
	if s.Operating.DVFSMHz != 0 {
		if s.Operating.DVFSMHz < 800 || s.Operating.DVFSMHz > 3600 {
			return fmt.Errorf("spec: DVFS %g MHz outside [800, 3600]", s.Operating.DVFSMHz)
		}
		if !s.Operating.Scheme.Uncapped() {
			return fmt.Errorf("spec: pinned DVFS and a capping scheme are mutually exclusive")
		}
	}
	switch s.Operating.Backend {
	case "", "msr", "sysfs":
	default:
		return fmt.Errorf("spec: unknown actuation backend %q (want msr or sysfs)", s.Operating.Backend)
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if s.Fleet.Nodes < 1 {
		return fmt.Errorf("spec: fleet needs at least one node, got %d", s.Fleet.Nodes)
	}
	if s.Cluster() {
		return s.validateCluster()
	}
	return s.validateSingle()
}

func (s Scenario) validateSingle() error {
	if len(s.Workloads) != 1 {
		return fmt.Errorf("spec: single-node scenario carries %d workloads, needs exactly 1", len(s.Workloads))
	}
	if s.Fleet.BudgetW != 0 || s.Fleet.QuarantineCapW != 0 || s.Fleet.LeaseTTLEpochs != 0 || s.Fleet.FailoverEpochs != 0 {
		return fmt.Errorf("spec: lease/budget parameters on a single-node scenario")
	}
	if len(s.Faults.Nodes) > 0 || len(s.Faults.Managers) > 0 || len(s.Faults.Partitions) > 0 {
		return fmt.Errorf("spec: node/manager/partition faults on a single-node scenario")
	}
	// Powercap faults only perturb the sysfs actuation path; on the MSR
	// backend they would be silent no-ops, which is always a spec bug.
	if s.Faults.Powercap != nil && s.Faults.Powercap.Enabled() && s.Operating.Backend != "sysfs" {
		return fmt.Errorf("spec: powercap faults require the sysfs backend, got %q", s.Operating.Backend)
	}
	if s.Operating.Backend == "sysfs" && s.Operating.DVFSMHz != 0 {
		return fmt.Errorf("spec: sysfs backend actuates caps; pinned DVFS has no cap daemon to reroute")
	}
	return nil
}

func (s Scenario) validateCluster() error {
	if s.Fleet.Nodes > 16 {
		return fmt.Errorf("spec: fleet of %d nodes above the soak bound of 16", s.Fleet.Nodes)
	}
	if !s.Operating.Scheme.Uncapped() || s.Operating.DVFSMHz != 0 || s.Operating.Backend != "" {
		return fmt.Errorf("spec: cluster scenarios carry no operating point (the lease arbiter owns the caps)")
	}
	if s.Faults.Powercap != nil && s.Faults.Powercap.Enabled() {
		return fmt.Errorf("spec: powercap faults on a cluster scenario (nodes actuate through the lease arbiter)")
	}
	if s.Epochs() < 2 {
		return fmt.Errorf("spec: cluster horizon %g s is under 2 manager epochs", s.HorizonSec)
	}
	quarantine := s.Fleet.QuarantineCapW
	if quarantine == 0 {
		quarantine = 40 // cluster.DefaultQuarantineCapW
	}
	if quarantine < 0 || quarantine >= rapl.FirmwareDefaultCapW {
		return fmt.Errorf("spec: quarantine cap %g W outside (0, %d)", quarantine, rapl.FirmwareDefaultCapW)
	}
	// The quarantine cap is written to RAPL registers verbatim (boot,
	// reboot, deadman revert); the register rounds to the nearest 1/8 W,
	// so an unrepresentable value could latch above the budget's
	// quarantine floor.
	if quarantine != math.Floor(quarantine*8)/8 {
		return fmt.Errorf("spec: quarantine cap %g W not representable in 1/8 W register units", quarantine)
	}
	if s.Fleet.BudgetW < quarantine*float64(s.Fleet.Nodes) {
		return fmt.Errorf("spec: budget %g W below the fleet's %d×%g W quarantine floor",
			s.Fleet.BudgetW, s.Fleet.Nodes, quarantine)
	}
	if s.Fleet.LeaseTTLEpochs < 0 || s.Fleet.FailoverEpochs < 0 {
		return fmt.Errorf("spec: negative lease TTL or failover epochs")
	}
	actors := map[string]bool{PrimaryManager: true, StandbyManager: true}
	for _, n := range s.NodeNames() {
		actors[n] = true
	}
	for name := range s.Faults.Nodes {
		if name == PrimaryManager || name == StandbyManager || !actors[name] {
			return fmt.Errorf("spec: node fault plan for unknown node %q", name)
		}
	}
	for name := range s.Faults.Managers {
		if name != PrimaryManager && name != StandbyManager {
			return fmt.Errorf("spec: manager fault plan for unknown manager %q", name)
		}
	}
	for i, p := range s.Faults.Partitions {
		for _, side := range [][]string{p.A, p.B} {
			for _, a := range side {
				if !actors[a] {
					return fmt.Errorf("spec: partition %d references unknown actor %q", i, a)
				}
			}
		}
	}
	return nil
}

// CanonicalJSON returns the scenario's canonical serialization: compact
// JSON with struct fields in declaration order, map keys sorted, and
// floats in Go's shortest-round-trip form. It is a pure function of the
// value — the content the hash addresses.
func (s Scenario) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}

// Hash returns the scenario's content hash: "v<version>-" plus the
// SHA-256 of the canonical serialization, in hex. Scenarios with equal
// hashes describe byte-identical simulations.
func (s Scenario) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("v%d-%s", s.Version, hex.EncodeToString(sum[:])), nil
}

// Encode renders the scenario as indented JSON for files meant to be
// read and diffed by humans (corpus entries, -spec inputs). Decoding
// either form yields the same value, and the hash is always computed
// over the canonical compact form.
func (s Scenario) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a scenario from JSON, rejecting unknown fields (a typo
// in a hand-written spec must not silently validate as its zero value).
// The result is validated.
func Decode(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("spec: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// FaultCount counts the scenario's active fault features — one per
// nonzero knob or schedule entry. The shrinker drives it toward zero;
// the shrinker test asserts the minimal repro keeps at most a couple.
func (s Scenario) FaultCount() int {
	n := 0
	ps := s.Faults.PubSub
	for _, r := range []float64{ps.DropRate, ps.DelayRate, ps.DupRate} {
		if r > 0 {
			n++
		}
	}
	n += len(ps.Blackouts) + len(ps.Disconnects)
	m := s.Faults.MSR
	for _, r := range []float64{m.StaleReadRate, m.ReadEIORate, m.WriteEIORate} {
		if r > 0 {
			n++
		}
	}
	if m.EnergyWrapRaw != 0 {
		n++
	}
	c := s.Faults.Counters
	if c.GlitchRate > 0 {
		n++
	}
	if c.OverflowOffset != 0 {
		n++
	}
	for _, np := range s.Faults.Nodes {
		if np.CrashAt > 0 {
			n++
		}
		if np.SlowAt > 0 {
			n++
		}
	}
	for _, mp := range s.Faults.Managers {
		if mp.Enabled() {
			n++
		}
	}
	n += len(s.Faults.Partitions)
	if pc := s.Faults.Powercap; pc != nil {
		for _, r := range []float64{
			pc.ReadAgainRate, pc.WriteAgainRate, pc.ReadEIORate,
			pc.WriteEIORate, pc.TruncateRate, pc.StaleEnergyRate,
		} {
			if r > 0 {
				n++
			}
		}
		n += len(pc.PermWindows) + len(pc.GoneWindows)
	}
	return n
}
