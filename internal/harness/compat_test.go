package harness

import (
	"bytes"
	"os"
	"testing"

	"netclone/internal/scenario"
)

// TestGoldenReportsMatchPreRedesign pins every experiment's rendered
// output against a committed golden: testdata/golden.csv holds the full
// suite rendered with
//
//	netclone-bench -run all -duration 3ms -warmup 1ms -loads 0.4 -repeats 2 -format csv
//
// and the current harness must reproduce it byte for byte. It fails if
// any experiment's scenario construction, seed derivation, window,
// option, or simulation semantics drifted.
//
// Pin history: the file was generated by the pre-Scenario harness
// (commit bca0f86) and re-pinned ONCE by the allocation-free hot-path
// PR, which replaced the Zipf sampler's rejection-inversion algorithm
// with Vose's alias method: the key-value experiments (fig11*, fig12*)
// consume the per-client RNG stream in a different order, so their rows
// — and only their rows — changed. The typed event engine, the packet
// freelist, and every non-KV experiment were verified byte-identical
// against the previous pin before the re-pin. The fault-injection PR
// appended the chaos-* family's rows: the previous pin was verified to
// be a byte-for-byte PREFIX of the regenerated file (cmp of the first
// len(old) bytes), proving the legacy loss/switch-failure knobs'
// canonicalization onto fault plans changed no pre-existing row. The
// fabric-topology PR appended the scale-* family's rows the same way:
// the previous pin was again verified to be a byte-for-byte prefix,
// proving that generalizing the single-rack and two-ToR paths onto
// the compiled N-rack topology executor changed no pre-existing row.
// The congestion PR appended the cong-* family's rows the same way:
// the previous pin was again verified to be a byte-for-byte prefix,
// proving that routing every hop site through the (absent-by-default)
// finite-queue executor changed no pre-existing row — an unconfigured
// model keeps the infinite-buffer event sequence bit for bit.
// scale-racks-xl's rows were appended the same way: the previous pin
// was again verified to be a byte-for-byte prefix.
// The batched-syscall emu PR appended chaos-2rack's rows the same way:
// the previous pin was again verified to be a byte-for-byte prefix,
// proving that lifting the emu backend's multi-rack and fault walls
// changed no pre-existing row — golden runs stay on the simulator, and
// the new experiment's sim rows pin the shared chaos definition the
// emu smoke re-runs on sockets.
// Deleting the flat-config surface (the multi-rack, loss and
// switch-failure knobs) moved ext-multirack onto WithRacks and fig16
// onto a faults.SwitchOutage injection with no re-pin: the file stayed
// byte-identical.
// The LAEDGE duplicate fix (a coordinator's duplicate now carries its
// owner, so its response no longer returns to coordinator 0) re-pinned
// one cell: abl-multicoord's "LAEDGE x2 coordinators" Achieved MRPS,
// 0.65 → 0.66. Every other byte of the file stayed identical.
//
// To regenerate after an intentional, documented change:
//
//	REGEN_GOLDEN=1 go test ./internal/harness -run TestGoldenReportsMatchPreRedesign
func TestGoldenReportsMatchPreRedesign(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	opts := Options{
		DurationNS: 3e6,
		WarmupNS:   1e6,
		LoadFracs:  []float64{0.4},
		Repeats:    2,
	}
	var got bytes.Buffer
	for _, e := range All() {
		r, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := RenderCSV(&got, r); err != nil {
			t.Fatal(err)
		}
	}
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile("testdata/golden.csv", got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated testdata/golden.csv; document the reason in the pin history above")
		return
	}
	want, err := os.ReadFile("testdata/golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendered reports diverge from the golden output (%d vs %d bytes); if the change is intentional, regenerate with REGEN_GOLDEN=1 and document why in the pin history comment", got.Len(), len(want))
	}
}

// TestScenarioPathBackwardCompatible asserts, across every registered
// experiment, that the default entry path (Options with no backend, as
// RunExperiment callers have always used) and the explicit backend path
// (Options.Backend = scenario.Sim()) produce byte-identical rendered
// reports, at a second seed, window and load grid beside the golden's.
func TestScenarioPathBackwardCompatible(t *testing.T) {
	if testing.Short() {
		t.Skip("full compatibility sweep skipped in -short mode")
	}
	base := Options{
		DurationNS: 4e6,
		WarmupNS:   1e6,
		Seed:       9,
		LoadFracs:  []float64{0.25, 0.7},
		Repeats:    2,
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			implicit, err := e.Run(base)
			if err != nil {
				t.Fatalf("default path failed: %v", err)
			}
			explicit := base
			explicit.Backend = scenario.Sim()
			viaBackend, err := e.Run(explicit)
			if err != nil {
				t.Fatalf("explicit backend path failed: %v", err)
			}
			if !bytes.Equal(renderBytes(t, implicit), renderBytes(t, viaBackend)) {
				t.Errorf("%s report differs between the default path and the explicit Sim() backend path", e.ID)
			}
		})
	}
}
