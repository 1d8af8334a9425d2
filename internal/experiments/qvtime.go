package experiments

import (
	"fmt"

	"vaq/internal/caldrift"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/qvolume"
	"vaq/internal/sim"
)

// The qvtime experiment asks what calibration drift costs a mapping
// that is never refreshed, and how much of that cost a drift-triggered
// recompile claws back. For each variance tier of a heavy-hex-20 fleet
// it generates a multi-cycle archive and walks the cycles with two
// tracks sharing one set of QV model circuits:
//
//   - stale: compile once on cycle 0, score that fixed physical circuit
//     on every later cycle's calibration;
//   - aware: run the caldrift detector over the window since the last
//     recompile and, when the drift score crosses the threshold, run a
//     canary recompile on the current snapshot, adopting the new
//     mapping only when it predicts an improvement (the same accept
//     gate the serve drift plane reports), then re-baseline.
//
// Both tracks are scored with the closed-form analytic PST, and the
// heavy-output probability uses the same mixture model as package
// qvolume (pst·idealHOP + (1−pst)/2), so every cell is exactly
// reproducible at any -workers setting. Recovered = aware − stale PST
// is the payoff of recompiling; it is zero until the first trigger.

// QVTimeRow is one (variance tier, calibration cycle) cell.
type QVTimeRow struct {
	Tier       calib.VarianceTier
	Cycle      int
	Score      float64 // drift score over the window since the last recompile
	Recompiled bool    // the aware track recompiled on this cycle
	StalePST   float64
	AwarePST   float64
	StaleHOP   float64
	AwareHOP   float64
	Recovered  float64 // AwarePST - StalePST
}

// qvtime sweep shape: a 16-cycle archive keeps the temporal AR(1) model
// in play long past the zoo default, and four width-4 model circuits
// keep PSTs in a readable range (width 6 already drives PST below 2%
// at the fleet's 4.3% mean CX error). The detection threshold is below
// the serve default because the score is a mean over every tracked
// series and a 20-qubit fleet dilutes localized drift.
var (
	qvtimeDays     = 8 // × ZooCyclesPerDay = 16 cycles
	qvtimeWidth    = 4
	qvtimeCircuits = 4
	qvtimeDetect   = 0.10
)

// QVTimeSweep runs the QV-over-time comparison on every variance tier.
// Tiers are the parallel axis; the cycle walk inside a tier is
// inherently sequential (the aware track's state depends on the past).
func QVTimeSweep(cfg Config) ([]QVTimeRow, error) {
	cfg = cfg.withDefaults()
	tiers := calib.Tiers()
	perTier, err := parallel.Map(cfg.Workers, len(tiers), func(i int) ([]QVTimeRow, error) {
		return qvtimeTier(cfg, tiers[i])
	})
	if err != nil {
		return nil, err
	}
	var rows []QVTimeRow
	for _, tr := range perTier {
		rows = append(rows, tr...)
	}
	return rows, nil
}

func qvtimeTier(cfg Config, tier calib.VarianceTier) ([]QVTimeRow, error) {
	name := "heavy-hex-20-" + string(tier)
	gcfg, err := calib.ZooGenConfig(name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gcfg.Days = qvtimeDays
	arch := calib.Generate(gcfg)
	snaps := arch.Snapshots

	// One fixed set of model circuits with their ideal heavy-output
	// probabilities; both tracks compile exactly these programs.
	type model struct {
		prog  *circuit.Circuit
		ideal float64
	}
	models := make([]model, qvtimeCircuits)
	for i := range models {
		mc := qvolume.ModelCircuit(qvtimeWidth, cfg.Seed+int64(i)*101)
		_, ideal, err := qvolume.HeavyOutputs(mc)
		if err != nil {
			return nil, fmt.Errorf("qvtime %s: %w", name, err)
		}
		models[i] = model{prog: mc, ideal: ideal}
	}
	compile := func(d *device.Device) ([]*circuit.Circuit, error) {
		phys := make([]*circuit.Circuit, len(models))
		for i, m := range models {
			comp, err := core.Compile(d, m.prog, core.Options{Policy: core.VQAVQM, Seed: cfg.Seed + int64(i)})
			if err != nil {
				return nil, fmt.Errorf("qvtime %s: %w", name, err)
			}
			phys[i] = comp.Routed.Physical
		}
		return phys, nil
	}
	score := func(d *device.Device, phys []*circuit.Circuit) (pst, hop float64) {
		n := float64(len(phys))
		for i, p := range phys {
			x := sim.AnalyticPST(d, p, sim.Config{})
			pst += x / n
			hop += (x*models[i].ideal + (1-x)*0.5) / n
		}
		return pst, hop
	}

	d0, err := device.New(arch.Topo, snaps[0])
	if err != nil {
		return nil, err
	}
	stale, err := compile(d0)
	if err != nil {
		return nil, err
	}
	aware, base := stale, 0

	rows := make([]QVTimeRow, 0, len(snaps))
	for c, snap := range snaps {
		d, err := device.New(arch.Topo, snap)
		if err != nil {
			return nil, err
		}
		var driftScore float64
		recompiled := false
		if c > base {
			rep, err := caldrift.Detect(name, snaps[base:c+1], qvtimeDetect)
			if err != nil {
				return nil, fmt.Errorf("qvtime %s cycle %d: %w", name, c, err)
			}
			driftScore = rep.Score
			if rep.Triggered {
				fresh, err := compile(d)
				if err != nil {
					return nil, err
				}
				// Canary accept gate: adopt only when the recompile
				// predicts an improvement on the current snapshot.
				oldPST, _ := score(d, aware)
				newPST, _ := score(d, fresh)
				if newPST > oldPST {
					aware = fresh
				}
				base, recompiled = c, true
			}
		}
		stalePST, staleHOP := score(d, stale)
		awarePST, awareHOP := score(d, aware)
		rows = append(rows, QVTimeRow{
			Tier:       tier,
			Cycle:      c,
			Score:      driftScore,
			Recompiled: recompiled,
			StalePST:   stalePST,
			AwarePST:   awarePST,
			StaleHOP:   staleHOP,
			AwareHOP:   awareHOP,
			Recovered:  awarePST - stalePST,
		})
	}
	return rows, nil
}

// QVTimeTable renders the sweep tier-major with a per-tier mean of the
// recovered PST in the caption.
func QVTimeTable(rows []QVTimeRow) Table {
	t := Table{
		Title:  "QV over time: stale mapping vs drift-triggered recompilation (heavy-hex-20, width-4 model circuits)",
		Header: []string{"tier", "cycle", "drift score", "recompiled", "stale PST", "aware PST", "stale HOP", "aware HOP", "recovered"},
	}
	sum := map[calib.VarianceTier]float64{}
	count := map[calib.VarianceTier]int{}
	for _, r := range rows {
		mark := ""
		if r.Recompiled {
			mark = "yes"
		}
		t.Rows = append(t.Rows, []string{
			string(r.Tier), fmt.Sprint(r.Cycle), f3(r.Score), mark,
			f3(r.StalePST), f3(r.AwarePST), f3(r.StaleHOP), f3(r.AwareHOP), f3(r.Recovered),
		})
		sum[r.Tier] += r.Recovered
		count[r.Tier]++
	}
	var cap string
	for _, tier := range calib.Tiers() {
		if count[tier] == 0 {
			continue
		}
		if cap != "" {
			cap += ", "
		}
		cap += fmt.Sprintf("%s %+.3f", tier, sum[tier]/float64(count[tier]))
	}
	t.Caption = "mean recovered PST by tier: " + cap
	return t
}
