// Package replay records a run's snapshot ring and bisects the first cycle
// where two recorded runs diverge.
//
// A recording is a directory holding meta.json — the run's spec (the
// campaign.RunText JSON mdxfault's flags and a job spec also fill), the
// per-point engine StateHash ladder (one entry every Every cycles, cycle 0
// included), and the final verdict — plus the retained snapshot files. The
// hash ladder is kept for every point; the snapshot files form a ring of the
// most recent Keep points (0 = keep all), since hashes are 8 bytes but
// snapshots are whole machines.
//
// Bisect compares two recordings of the same workload under different
// configurations (a shifted fault schedule, different retransmission tuning,
// a separate-D-XB machine variant, ...): it binary-searches the hash ladders
// for the first divergent point, restores both runs from their latest common
// snapshot, and locksteps them cycle by cycle to the exact first divergent
// cycle — seeking instead of replaying from zero. The search assumes
// divergence is monotone (once the two state streams separate, they never
// re-coincide hash-for-hash), the usual bisection premise.
package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sr2201/internal/campaign"
)

// formatVersion is the recording layout Record writes and Load reads:
// version 2 stores the run as campaign.RunText JSON (version 1 had a spec
// type of its own).
const formatVersion = 2

// Point is one hash-ladder entry: the engine's StateHash at Cycle, rendered
// in hex so the JSON round-trips exactly and diffs read well.
type Point struct {
	Cycle int64  `json:"cycle"`
	Hash  string `json:"hash"`
}

// Meta is a recording's index (meta.json).
type Meta struct {
	Version int              `json:"version"`
	Spec    campaign.RunText `json:"spec"`
	// Every is the point spacing in cycles.
	Every int64 `json:"every"`
	// Keep is the snapshot-ring capacity the recording was made with.
	Keep int `json:"keep,omitempty"`
	// Points is the full hash ladder, ascending by cycle, starting at 0.
	Points []Point `json:"points"`
	// Snapshots lists the cycles whose snapshot files were retained.
	Snapshots []int64 `json:"snapshots"`
	// Final is the run's last cycle and hash (not necessarily on the ladder).
	Final Point `json:"final"`
	// Verdict of the run.
	Drained    bool `json:"drained"`
	Stalled    bool `json:"stalled"`
	Deadlocked bool `json:"deadlocked"`
}

// Recording is a loaded (or just-written) recording directory.
type Recording struct {
	Dir  string
	Meta Meta
}

func hashAt(c *campaign.CellRun) string {
	return fmt.Sprintf("%016x", c.Machine().Engine().StateHash())
}

func snapPath(dir string, cycle int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%012d.snap", cycle))
}

// Record runs the single run spec spells to completion, writing the
// recording into dir. every is the point spacing (>= 1); keep bounds the
// snapshot ring (0 = keep every snapshot). A rejected spec is the resolver's
// *campaign.FieldError.
func Record(spec campaign.RunText, every int64, keep int, dir string) (*Recording, error) {
	if every < 1 {
		return nil, fmt.Errorf("replay: point spacing %d < 1", every)
	}
	cs, err := spec.Spec()
	if err != nil {
		return nil, err
	}
	c, err := campaign.NewCellRun(cs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := Meta{Version: formatVersion, Spec: spec, Every: every, Keep: keep}
	for {
		if c.Cycle()%every == 0 {
			meta.Points = append(meta.Points, Point{Cycle: c.Cycle(), Hash: hashAt(c)})
			if err := os.WriteFile(snapPath(dir, c.Cycle()), c.Snapshot(), 0o644); err != nil {
				return nil, err
			}
			meta.Snapshots = append(meta.Snapshots, c.Cycle())
			if keep > 0 && len(meta.Snapshots) > keep {
				os.Remove(snapPath(dir, meta.Snapshots[0]))
				meta.Snapshots = meta.Snapshots[1:]
			}
		}
		if c.Step() {
			break
		}
	}
	meta.Final = Point{Cycle: c.Cycle(), Hash: hashAt(c)}
	res, err := c.Result()
	if err != nil {
		return nil, err
	}
	meta.Drained, meta.Stalled, meta.Deadlocked = res.Drained, res.Stalled, res.Deadlocked
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &Recording{Dir: dir, Meta: meta}, nil
}

// Load opens a recording directory.
func Load(dir string) (*Recording, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	// The version is read first, so an older layout is refused by its
	// number rather than by the first field it spells differently.
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", dir, err)
	}
	if head.Version != formatVersion {
		return nil, fmt.Errorf("replay: %s: recording format version %d, this build reads version %d; re-record the run",
			dir, head.Version, formatVersion)
	}
	// Unknown fields are rejected by name: a recording that carries a knob
	// this build does not have would otherwise replay as a silently
	// different run.
	var meta Meta
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", dir, err)
	}
	return &Recording{Dir: dir, Meta: meta}, nil
}

// seek builds the recording's cell run positioned at cycle (0 = fresh run;
// otherwise the retained snapshot at that exact cycle).
func (r *Recording) seek(cycle int64) (*campaign.CellRun, error) {
	cs, err := r.Meta.Spec.Spec()
	if err != nil {
		return nil, fmt.Errorf("replay: %s: spec %w", r.Dir, err)
	}
	c, err := campaign.NewCellRun(cs)
	if err != nil {
		return nil, err
	}
	if cycle == 0 {
		return c, nil
	}
	data, err := os.ReadFile(snapPath(r.Dir, cycle))
	if err != nil {
		return nil, err
	}
	if err := c.Restore(data); err != nil {
		return nil, fmt.Errorf("replay: %s: snapshot at cycle %d: %w", r.Dir, cycle, err)
	}
	return c, nil
}

// hasSnap reports whether the ring still holds the snapshot at cycle.
func (r *Recording) hasSnap(cycle int64) bool {
	if cycle == 0 {
		return true // cycle 0 is always reachable: a fresh run
	}
	for _, c := range r.Meta.Snapshots {
		if c == cycle {
			return true
		}
	}
	return false
}

// Divergence is Bisect's verdict.
type Divergence struct {
	// Diverged is false when the two state streams match through both runs'
	// ends (at ladder granularity before the seek point, per cycle after).
	Diverged bool
	// Cycle is the first cycle whose engine StateHash differs (valid when
	// Diverged). HashA/HashB are the two hashes at that cycle.
	Cycle        int64
	HashA, HashB string
	// Terminated marks a termination divergence: the streams stayed
	// hash-equal but one run finished at Cycle while the other ran on.
	Terminated bool
	// SeekCycle is the common snapshot the lockstep started from; Stepped is
	// how many cycles it replayed (the work saved is roughly Cycle-0 minus
	// Stepped).
	SeekCycle, Stepped int64
}

// Bisect finds the first divergent cycle between two recordings.
func Bisect(a, b *Recording) (Divergence, error) {
	pa, pb := a.Meta.Points, b.Meta.Points
	if len(pa) == 0 || len(pb) == 0 {
		return Divergence{}, fmt.Errorf("replay: recording has no points")
	}
	if pa[0].Cycle != 0 || pb[0].Cycle != 0 {
		return Divergence{}, fmt.Errorf("replay: recordings must start at cycle 0")
	}
	// The common ladder: both recordings' points at identical cycles. With
	// equal Every this is simply the shorter prefix; with different spacings
	// it is the points at common multiples.
	hb := make(map[int64]string, len(pb))
	for _, p := range pb {
		hb[p.Cycle] = p.Hash
	}
	var common []Point // a-side points that b also has
	for _, p := range pa {
		if _, ok := hb[p.Cycle]; ok {
			common = append(common, p)
		}
	}
	if len(common) == 0 {
		return Divergence{}, fmt.Errorf("replay: recordings share no point cycles (incompatible -every)")
	}
	// Binary-search the first divergent ladder point (monotone-divergence
	// premise: equal at i implies equal at every j < i).
	firstDiff := sort.Search(len(common), func(i int) bool {
		return common[i].Hash != hb[common[i].Cycle]
	})

	if firstDiff == 0 && common[0].Hash != hb[common[0].Cycle] {
		// Diverged at cycle 0: the initial states themselves differ.
		return Divergence{Diverged: true, Cycle: 0, HashA: common[0].Hash, HashB: hb[common[0].Cycle]}, nil
	}

	// Seek: the latest known-equal ladder cycle whose snapshot both rings
	// retain (falling back to a fresh run from cycle 0 when the rings have
	// pruned past the divergence).
	seekAt := int64(0)
	for i := firstDiff - 1; i >= 0; i-- {
		if c := common[i].Cycle; a.hasSnap(c) && b.hasSnap(c) {
			seekAt = c
			break
		}
	}
	ca, err := a.seek(seekAt)
	if err != nil {
		return Divergence{}, err
	}
	cb, err := b.seek(seekAt)
	if err != nil {
		return Divergence{}, err
	}

	// Lockstep to the exact cycle. A run that finishes (drain, stall,
	// horizon) stops advancing, so termination mismatches are checked before
	// hashes — otherwise the cycle skew would masquerade as a state
	// divergence one report too late.
	d := Divergence{SeekCycle: seekAt}
	for {
		doneA, doneB := ca.Done(), cb.Done()
		switch {
		case doneA != doneB:
			d.Diverged, d.Terminated = true, true
			if doneA {
				d.Cycle = ca.Cycle()
			} else {
				d.Cycle = cb.Cycle()
			}
			d.HashA, d.HashB = hashAt(ca), hashAt(cb)
			return d, nil
		case doneA && doneB:
			if ha, hb := hashAt(ca), hashAt(cb); ha != hb {
				d.Diverged, d.Cycle, d.HashA, d.HashB = true, ca.Cycle(), ha, hb
			}
			return d, nil
		}
		ca.Step()
		cb.Step()
		d.Stepped++
		if ca.Done() || cb.Done() {
			continue // let the termination check above classify it
		}
		if ha, hb := hashAt(ca), hashAt(cb); ha != hb {
			d.Diverged, d.Cycle, d.HashA, d.HashB = true, ca.Cycle(), ha, hb
			return d, nil
		}
	}
}
