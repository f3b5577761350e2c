package simcluster

import (
	"testing"

	"netclone/internal/faults"
)

// withLoss drops each link traversal of the whole run with probability
// p — the §3.6 dropped-messages model as a one-entry fault plan.
func withLoss(cfg Config, p float64) Config {
	cfg.Faults = faults.New(faults.Loss(0, faults.Forever, p))
	return cfg
}

func TestLossModelDropsPackets(t *testing.T) {
	cfg := withLoss(fastConfig(NetClone), 0.01)
	cfg.DurationNS = 60e6
	res := mustRun(t, cfg)
	if res.LostPackets == 0 {
		t.Fatal("1% loss dropped nothing")
	}
	if res.Completed >= res.Generated {
		t.Fatal("loss should lose some requests")
	}
	// With ~1% per-link loss over ~4 request links plus clone traffic,
	// well over 90% of requests still complete.
	frac := float64(res.Completed) / float64(res.Generated)
	if frac < 0.90 {
		t.Errorf("completion fraction %.3f under 1%% loss, want > 0.90", frac)
	}
}

// TestFilterSlotsNotStuckUnderLoss is the §3.6 "Dropped messages"
// scenario: lost slower responses leave fingerprints behind, but the
// overwrite-on-insert rule keeps slots usable — responses of later
// requests must not be spuriously dropped at a growing rate.
func TestFilterSlotsNotStuckUnderLoss(t *testing.T) {
	cfg := withLoss(fastConfig(NetClone), 0.02)
	cfg.DurationNS = 80e6
	cfg.FilterSlots = 256 // tiny: every lingering fingerprint matters
	cfg.FilterTables = 2
	res := mustRun(t, cfg)

	// Completions track non-lost requests: a stuck-slot pathology would
	// show up as completions collapsing over the run.
	frac := float64(res.Completed) / float64(res.Generated)
	if frac < 0.85 {
		t.Fatalf("completion fraction %.3f: filter slots look stuck", frac)
	}
	// The overwrite path must actually be exercised by lingering
	// fingerprints.
	if res.Switch.FilterOverwrites == 0 {
		t.Error("no fingerprint overwrites despite lost responses and tiny tables")
	}
}

func TestZeroLossIsLossless(t *testing.T) {
	res := mustRun(t, withLoss(fastConfig(NetClone), 0))
	if res.LostPackets != 0 {
		t.Fatalf("a zero-probability loss window lost %d packets", res.LostPackets)
	}
}

func TestLossDeterminism(t *testing.T) {
	cfg := withLoss(fastConfig(Baseline), 0.05)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.LostPackets != b.LostPackets || a.Completed != b.Completed {
		t.Error("loss model not deterministic under equal seeds")
	}
}
