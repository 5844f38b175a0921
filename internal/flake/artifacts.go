package flake

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/light"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Repro is the machine-readable half of a cluster's artifact bundle
// (repro.json): everything needed to re-trigger and replay the failure.
type Repro struct {
	// Workload and Seed identify the program and the representative run.
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Intensity is the campaign's perturbation intensity (the minimal
	// decision script, not the intensity, drives the reproducer).
	Intensity int `json:"intensity"`
	// Signature is the cluster identity, Bug the representative failure.
	Signature Signature `json:"signature"`
	Bug       *BugInfo  `json:"bug,omitempty"`
	// MinDecisions is the shrunk perturbation script; feed it back through
	// BuildTrace (or lightflake) to bias a fresh record run toward the bug.
	MinDecisions []Decision `json:"min_decisions"`
	// ReplayVerified records whether the bundled log has been observed to
	// replay with the failure reproduced.
	ReplayVerified bool `json:"replay_verified"`
	// ReplayCmd re-executes the bundled recording deterministically.
	ReplayCmd string `json:"replay_cmd"`
}

// writeArtifacts emits one bundle directory per cluster under ArtifactsDir:
//
//	cluster-NN/prog.mj        the program source
//	cluster-NN/repro.lightlog the failing run's recording
//	cluster-NN/repro.json     seed, signature, minimal decisions, replay cmd
//	cluster-NN/trace.json     Chrome trace of the replay schedule
//	cluster-NN/flight.json    flight-recorder rings of the verification replay
//	cluster-NN/forensics.json divergence post-mortem (divergence clusters)
func (h *hunter) writeArtifacts(clusters []*cluster) error {
	for i, c := range clusters {
		dir := filepath.Join(h.cfg.ArtifactsDir, fmt.Sprintf("cluster-%02d", i+1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("flake: artifacts: %w", err)
		}
		if err := h.writeBundle(dir, c); err != nil {
			return fmt.Errorf("flake: artifacts %s: %w", dir, err)
		}
		c.reproDir = dir
		c.replayCmd = fmt.Sprintf("lightrr replay -log %s %s",
			filepath.Join(dir, "repro.lightlog"), filepath.Join(dir, "prog.mj"))
	}
	return nil
}

// writeBundle writes one cluster's files. The bundled log is the verified
// minimal reproducer's recording when verification succeeded, else the
// representative failure's recording (still a failing run, just with the
// full-noise decision trace).
func (h *hunter) writeBundle(dir string, c *cluster) error {
	out := c.rep
	if c.verified && c.verifyOut != nil {
		out = c.verifyOut
	}
	if err := os.WriteFile(filepath.Join(dir, "prog.mj"), []byte(h.cfg.Workload.Source), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "repro.lightlog"))
	if err != nil {
		return err
	}
	if err := trace.Encode(f, out.log); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Replay the bundled log once with the flight recorder on: the replay
	// schedule becomes trace.json, the rings flight.json, and a diverged
	// replay contributes its forensic post-mortem.
	rep, repErr := light.Replay(h.prog, out.log, light.RunConfig{
		Instrument:        h.mask,
		MaxStepsPerThread: maxStepsPerThread,
		FlightCapacity:    flight.DefaultCapacity,
	})
	var snaps []flight.RingSnap
	if repErr == nil {
		snaps = rep.Flight
		if err := writeFile(dir, "trace.json", func(f *os.File) error {
			return light.ExportScheduleChrome(f, rep.Schedule)
		}); err != nil {
			return err
		}
		if rep.Diverged && rep.Forensics != nil {
			if err := writeFile(dir, "forensics.json", func(f *os.File) error {
				return rep.Forensics.WriteJSON(f)
			}); err != nil {
				return err
			}
		}
	}
	if err := writeFile(dir, "flight.json", func(f *os.File) error {
		return flight.WriteChrome(f, snaps, nil)
	}); err != nil {
		return err
	}

	repro := &Repro{
		Workload:       h.cfg.Workload.Name,
		Seed:           out.seed,
		Intensity:      h.cfg.Intensity,
		Signature:      c.sig,
		MinDecisions:   c.minDecisions,
		ReplayVerified: c.verified,
		ReplayCmd: fmt.Sprintf("lightrr replay -log %s %s",
			filepath.Join(dir, "repro.lightlog"), filepath.Join(dir, "prog.mj")),
	}
	if bug := out.res.FirstBug(); bug != nil {
		repro.Bug = &BugInfo{
			Kind:   bug.Kind.String(),
			Pos:    bug.Pos.String(),
			Thread: bug.ThreadPath,
			Msg:    bug.Msg,
		}
	}
	return writeFile(dir, "repro.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(repro)
	})
}

// writeFile creates dir/name and hands it to fill, closing on all paths.
func writeFile(dir, name string, fill func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
