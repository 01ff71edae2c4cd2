package experiments

import (
	"fmt"

	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "E13", Title: "Multi-fault degradation (beyond the single-fault guarantee)", Paper: "Sec. 6 future work", run: runE13})
}

// comboClass names a pair of fault kinds for the breakdown table.
func comboClass(a, b fault.Fault) string {
	name := func(f fault.Fault) string {
		if f.Kind == fault.KindRouter {
			return "rtc"
		}
		return fmt.Sprintf("xb%d", f.Line.Dim)
	}
	x, y := name(a), name(b)
	if x > y {
		x, y = y, x
	}
	return x + "+" + y
}

// runE13 probes the paper's closing remark ("we intend to improve this
// facility to further increase the system reliability"): what happens with
// TWO faults, which the facility does not guarantee? For every pair of
// faults (routers and crossbars) on a 4x4 we measure (a) the fraction of
// healthy pairs still deliverable, (b) whether the channel dependency graph
// stays acyclic, (c) a dynamic mixed-traffic run, and (d) that no delivered
// path ever touches a fault. Shape criterion: graceful degradation — zero
// static cycles, zero dynamic deadlocks, zero paths through faults;
// reachability falls only for combinations involving last-dimension
// crossbars.
func runE13(r *Report, opt Options) error {
	shape := geom.MustShape(4, 4)

	var pool []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		pool = append(pool, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		pool = append(pool, fault.XBFault(l))
	}
	step := 1
	dynamicEvery := 1
	if opt.Quick {
		step = 3
		dynamicEvery = 5
	}

	type agg struct {
		combos    int
		sumReach  float64
		minReach  float64
		cyclic    int
		deadlocks int
	}
	byClass := map[string]*agg{}
	violations := 0
	dynRuns := 0

	for i := 0; i < len(pool); i += step {
		for j := i + 1; j < len(pool); j += step {
			f1, f2 := pool[i], pool[j]
			set := fault.NewSet(shape)
			if err := set.Add(f1); err != nil {
				return err
			}
			if err := set.Add(f2); err != nil {
				return err
			}
			p, err := routing.New(routing.Config{Shape: shape, Faults: set})
			if err != nil {
				return err
			}
			reach, total := 0, 0
			shape.Enumerate(func(src geom.Coord) bool {
				shape.Enumerate(func(dst geom.Coord) bool {
					if src == dst || !set.PEAlive(src) || !set.PEAlive(dst) {
						return true
					}
					total++
					path, err := p.UnicastPath(src, dst)
					if err != nil {
						return true
					}
					reach++
					for _, h := range path {
						switch h.Kind {
						case routing.HopRouter:
							if set.RouterFaulty(h.Coord) {
								violations++
							}
						case routing.HopXB:
							if set.XBFaulty(h.Line) {
								violations++
							}
						}
					}
					return true
				})
				return true
			})
			frac := 0.0
			if total > 0 {
				frac = float64(reach) / float64(total)
			}
			cls := comboClass(f1, f2)
			a := byClass[cls]
			if a == nil {
				a = &agg{minReach: 1}
				byClass[cls] = a
			}
			a.combos++
			a.sumReach += frac
			if frac < a.minReach {
				a.minReach = frac
			}
			res, err := cdg.Analyze(p, shape, false)
			if err != nil {
				return err
			}
			if !res.Acyclic {
				a.cyclic++
			}
			if (i+j)%dynamicEvery == 0 {
				dynRuns++
				wedged, err := e13Dynamic(shape, f1, f2)
				if err != nil {
					return err
				}
				if wedged {
					a.deadlocks++
				}
			}
		}
	}

	tbl := stats.NewTable(fmt.Sprintf("E13 two-fault combinations on %s", shape),
		"fault pair", "combos", "mean reach", "min reach", "cyclic CDGs", "dynamic deadlocks")
	classes := []string{"rtc+rtc", "rtc+xb0", "rtc+xb1", "xb0+xb0", "xb0+xb1", "xb1+xb1"}
	pass := true
	for _, cls := range classes {
		a := byClass[cls]
		if a == nil {
			continue
		}
		tbl.AddRow(cls, a.combos, a.sumReach/float64(a.combos), a.minReach, a.cyclic, a.deadlocks)
		if a.cyclic > 0 || a.deadlocks > 0 || a.minReach < 0.4 {
			pass = false
		}
		// Reachability should fall only for last-dimension crossbar combos.
		if cls == "rtc+rtc" || cls == "rtc+xb0" || cls == "xb0+xb0" {
			if a.minReach < 0.999 {
				pass = false
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	if violations > 0 {
		pass = false
	}
	r.Pass = pass
	r.Notef("paths through a fault: %d (must be 0); dynamic runs: %d", violations, dynRuns)
	r.Notef("double faults never break deadlock freedom — the single serialization point is fault-count-independent; reachability drops only where last-dimension crossbars die")
	return nil
}

// e13Dynamic runs one mixed-traffic scenario under two faults; reports
// whether it wedged.
func e13Dynamic(shape geom.Shape, f1, f2 fault.Fault) (bool, error) {
	m, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 256})
	if err != nil {
		return false, err
	}
	if err := m.AddFault(f1); err != nil {
		return false, err
	}
	if err := m.AddFault(f2); err != nil {
		return false, err
	}
	shape.Enumerate(func(src geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(src) + 7) % shape.Size())
		_, _ = m.Send(src, dst, 12) // refusals fine
		return true
	})
	shape.Enumerate(func(c geom.Coord) bool {
		if m.Alive(c) {
			if _, _, err := m.Broadcast(c, 12); err == nil {
				return false
			}
		}
		return true
	})
	out := m.Run(runBudget)
	return out.Deadlocked || out.Stalled, nil
}
