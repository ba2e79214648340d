package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"progresscap/internal/apps"
	"progresscap/internal/workload"
)

// TestRunFingerprintFieldSet pins the exact fields of RunFingerprint.
// The fingerprint names a simulation *result*, so only knobs that can
// change simulated bytes belong here. Execution-level knobs (scheduler
// parallelism, cluster shard worker counts) must never appear: adding
// one would fork the disk cache by machine shape for byte-identical
// results. If this test fails, you either added a semantic knob
// (update the want list AND bump Version so stale cache entries cannot
// alias the new meaning) or leaked an execution knob (remove it).
func TestRunFingerprintFieldSet(t *testing.T) {
	// Backend rides without a Version bump: "" is omitted from the JSON,
	// so every pre-backend cache key still means exactly the MSR path —
	// no stale entry can alias a sysfs result.
	want := []string{
		"Version", "Workload", "Operating", "Seed",
		"MaxSeconds", "Invariants", "FixedTick", "Faults", "Backend",
	}
	typ := reflect.TypeOf(RunFingerprint{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunFingerprint fields = %v, want %v", got, want)
	}
	for _, banned := range []string{"Parallel", "NodeWorkers", "Workers", "Shards", "Forking"} {
		if _, ok := typ.FieldByName(banned); ok {
			t.Fatalf("execution knob %s leaked into the run fingerprint", banned)
		}
	}
}

// TestRunFingerprintBackendKeysCache pins the backend's cache-key
// semantics: the sysfs backend floors caps to the register unit where
// the MSR path rounds to nearest, so the two must hash differently —
// while the empty backend must hash identically to a pre-backend
// fingerprint (the field is omitted) so existing disk caches stay
// valid.
func TestRunFingerprintBackendKeysCache(t *testing.T) {
	base := RunFingerprint{Version: 1, Operating: "scheme:constant(50)", Seed: 1, MaxSeconds: 6}
	sysfs := base
	sysfs.Backend = "sysfs"
	if base.Hash() == sysfs.Hash() {
		t.Fatal("sysfs backend does not key the cache: hash equals the MSR default's")
	}
	msr := base
	msr.Backend = ""
	if base.Hash() != msr.Hash() {
		t.Fatal("empty backend changed the hash; pre-backend cache entries would be orphaned")
	}
}

// workloadFPHash is the SHA-256 of a workload fingerprint's canonical
// JSON: the part of every run fingerprint (and so of every memo and
// disk-cache key) that the generators contribute.
func workloadFPHash(t *testing.T, w *workload.Workload) string {
	t.Helper()
	b, err := json.Marshal(FingerprintWorkload(w))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWorkloadFingerprintPinned pins the generator probes of every
// built-in application. A change to a generator's float expressions, its
// RNG draw order or the probe order changes these hashes, and with them
// every run fingerprint: each existing -cachedir entry would silently
// stop matching. Update a value only together with a spec.Version bump.
func TestWorkloadFingerprintPinned(t *testing.T) {
	qmc := apps.QMCPACK(apps.DefaultRanks, 10, 10, 40)
	cases := []struct {
		w    *workload.Workload
		want string
	}{
		{apps.LAMMPS(apps.DefaultRanks, 200), "f0cf3b4d05c2b60c55c0f4e7bd17912f32cad91303de99a413c8411c53488752"},
		{apps.AMG(apps.DefaultRanks, 50), "982eb755c39b918fc15f2f226fd67f2d6b799e95d5a12bdb42481c26968a4cc9"},
		{qmc, "561734be1c36f3352eaf00e64c3d15959e2f245d478c7b3bdb9afc36544a3ddc"},
		{qmc.SubsetPhase("dmc"), "cc1d10462eb2a0914091fff2634fa313a9905b0cf7e90593bec1dee7f2d14cb2"},
		{apps.OpenMC(apps.DefaultRanks, 5, 10, 100000), "8e3b7ff00603a37435d3b1105f773cff6f6cfdb0794c71350c82e6c85c444d21"},
		{apps.STREAM(apps.DefaultRanks, 100), "b6959b6f1727d38f6fdf192861c21f9e87b1da280201b1e34a03b846840e9fc5"},
		{apps.CANDLE(apps.DefaultRanks, 10), "a371ba7e15199f6cfe40806c277366f6e24764cd977f950eb53ba3aaf2c3d9c3"},
		{apps.Nek5000(16, 80), "f071fb8fc348d6d0011050765f75cd25d2c2726b049a44eddf9f3c147a35a30c"},
		{apps.EnergyPlus(8, 16), "104103a56c5aee73f8c2071b5970340605993fefd9f9a6a9f7cdabfde1d46b0c"},
		{apps.ImbalanceSample(apps.DefaultRanks, 5, true, 1.0), "473a367841362afdce5613b84276db86be14e1baed648a7ebfebdc36f92ac865"},
		{apps.ImbalanceSample(apps.DefaultRanks, 5, false, 1.0), "ab19f852cc99e9e852b1e06634019cf27d24dee21e6dc04eb20f4b3fcb3e61f6"},
	}
	for _, c := range cases {
		if got := workloadFPHash(t, c.w); got != c.want {
			t.Errorf("%s: fingerprint hash %s, want %s", c.w.Name, got, c.want)
		}
	}
}
