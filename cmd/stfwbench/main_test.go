package main

import (
	"os"
	"path/filepath"
	"testing"

	"stfw/internal/experiments"
	"stfw/internal/telemetry"
)

func TestRunDispatch(t *testing.T) {
	cfg := benchConfig{Config: experiments.Config{Scale: 64}}
	if err := run(cfg, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// A fast experiment end-to-end through the CLI dispatcher.
	if err := run(cfg, "stencil"); err != nil {
		t.Errorf("stencil: %v", err)
	}
	if err := run(cfg, "fig1"); err != nil {
		t.Errorf("fig1: %v", err)
	}
}

// TestRunLiveUDP runs the live experiment over the udpnet transport
// in-process: the full K=64 SpMV collective crosses real loopback
// datagrams.
func TestRunLiveUDP(t *testing.T) {
	cfg := benchConfig{Config: experiments.Config{Scale: 64}, transport: "udp"}
	if err := run(cfg, "live"); err != nil {
		t.Fatal(err)
	}
	// An unknown transport must be rejected, not silently defaulted.
	cfg.transport = "carrier-pigeon"
	if err := run(cfg, "live"); err == nil {
		t.Error("unknown transport accepted")
	}
}

// TestRunLive executes the real K=64 STFW run with telemetry, trace export,
// debug endpoint, and profiles through the CLI path. This doubles as the
// acceptance check that a K=64 run produces a Perfetto-valid trace with one
// track per rank and per-stage slices matching the topology dimension.
func TestRunLive(t *testing.T) {
	dir := t.TempDir()
	cfg := benchConfig{
		Config:     experiments.Config{Scale: 64},
		traceOut:   filepath.Join(dir, "live.json"),
		debugAddr:  "127.0.0.1:0",
		cpuProfile: filepath.Join(dir, "cpu.pprof"),
		memProfile: filepath.Join(dir, "mem.pprof"),
	}
	if err := run(cfg, "live"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tracks) != liveK {
		t.Fatalf("trace has %d tracks, want one per rank (%d)", len(st.Tracks), liveK)
	}
	for r, tr := range st.Tracks {
		if !tr.Named {
			t.Fatalf("rank %d track unnamed", r)
		}
		if len(tr.Stages) != liveDim {
			t.Fatalf("rank %d saw %d distinct stages, want %d", r, len(tr.Stages), liveDim)
		}
	}
	for _, p := range []string{cfg.cpuProfile, cfg.memProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
