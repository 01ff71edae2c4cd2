package jobs

// Crash-safe job state. With Config.StateDir set, the manager persists
// enough to survive a kill -9 mid-run and finish every job with the exact
// artifact the uninterrupted server would have produced. Several worker
// processes may share one state directory; the lease layer (lease.go)
// arbitrates ownership per execution.
//
//	<dir>/jobs/<worker>/<id>.json  one record per submitted job (id -> spec)
//	<dir>/execs/<h>/spec.json      the execution's canonical spec
//	<dir>/execs/<h>/artifact       the final artifact (present <=> done)
//	<dir>/execs/<h>/artifact.sum   FNV-1a checksum of the artifact bytes
//	<dir>/execs/<h>/cells/         completed campaign cells (campaign kind)
//	<dir>/execs/<h>/park.json      where a fault run last parked: cycle + StateHash
//	<dir>/execs/<h>/lease/         ownership claims + heartbeat (lease.go)
//	<dir>/execs/<h>/poisoned.json  quarantine record (lease.go)
//
// where <h> is the 64-bit FNV-1a of the canonical spec, in hex — the
// content address under which a whole fleet dedupes executions: any worker
// that finds the artifact present adopts it instead of re-running. Job ids
// are scoped per worker (jobs/<worker>/) so fleet members never collide on
// id allocation. On boot a manager rescans: executions with a checksummed
// artifact are resurrected as completed, executions without one are
// re-enqueued and, once the lease is won, re-execute from cycle 0: a
// campaign skips its completed cells, and a fault run checks its state
// against park.json when it reaches the parked cycle. All files are written
// atomically (temp + rename), so a crash leaves old state or none, never
// torn state; anything torn anyway (bit flips, truncation) reads as absent.
// The mid-run snapshot files earlier builds wrote (single.snap,
// cells/cell-NNNN.snap) are swept at rescan and at claim.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sr2201/internal/campaign"
)

type stateStore struct {
	dir    string
	worker string
}

func openStateStore(dir, worker string) (*stateStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs", worker), filepath.Join(dir, "execs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: state dir: %w", err)
		}
	}
	return &stateStore{dir: dir, worker: worker}, nil
}

func canonHash(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *stateStore) execDir(h string) string  { return filepath.Join(s.dir, "execs", h) }
func (s *stateStore) cellsDir(h string) string { return filepath.Join(s.execDir(h), "cells") }
func (s *stateStore) jobsDir() string          { return filepath.Join(s.dir, "jobs", s.worker) }
func (s *stateStore) parkPath(h string) string { return filepath.Join(s.execDir(h), "park.json") }

// probe verifies the state directory is still writable — the readiness
// signal. It exercises the same CreateTemp+rename path every persisted
// write uses, so ENOSPC or an unmounted volume fails here first.
func (s *stateStore) probe() error {
	return campaign.WriteAtomic(filepath.Join(s.dir, ".probe-"+s.worker), []byte("ok"))
}

// saveExecSpec records a new execution's canonical spec.
func (s *stateStore) saveExecSpec(h, canonical string) error {
	if err := os.MkdirAll(s.execDir(h), 0o755); err != nil {
		return err
	}
	return campaign.WriteAtomic(filepath.Join(s.execDir(h), "spec.json"), []byte(canonical))
}

// artifactSum is the checksum sidecar content for artifact bytes.
func artifactSum(artifact []byte) []byte {
	h := fnv.New64a()
	h.Write(artifact)
	return []byte(fmt.Sprintf("%016x", h.Sum64()))
}

// saveArtifact marks an execution done. The sidecar checksum goes first;
// the artifact rename stays the commit point (a sum without an artifact is
// harmless litter, an artifact whose sum disagrees reads as absent).
func (s *stateStore) saveArtifact(h string, artifact []byte) error {
	if err := campaign.WriteAtomic(filepath.Join(s.execDir(h), "artifact.sum"), artifactSum(artifact)); err != nil {
		return err
	}
	return campaign.WriteAtomic(filepath.Join(s.execDir(h), "artifact"), artifact)
}

// loadArtifact fetches a finished execution's artifact, verifying the
// checksum sidecar. ok is false when absent or corrupt — a bit-flipped
// artifact is re-run, never served.
func (s *stateStore) loadArtifact(h string) ([]byte, bool) {
	art, err := os.ReadFile(filepath.Join(s.execDir(h), "artifact"))
	if err != nil {
		return nil, false
	}
	sum, err := os.ReadFile(filepath.Join(s.execDir(h), "artifact.sum"))
	if err != nil || string(sum) != string(artifactSum(art)) {
		return nil, false
	}
	return art, true
}

// removeExec discards an execution's state (failed runs are not cached).
func (s *stateStore) removeExec(h string) {
	os.RemoveAll(s.execDir(h))
}

// parkRecord is park.json. Sum covers the cycle and hash, so a record that
// was torn or flipped reads as absent rather than as a divergence.
type parkRecord struct {
	Cycle int64  `json:"cycle"`
	Hash  string `json:"hash"`
	Sum   string `json:"sum"`
}

func parkSum(cycle int64, hash string) string {
	return string(artifactSum([]byte(fmt.Sprintf("%d %s", cycle, hash))))
}

// savePark records where a fault run stands.
func (s *stateStore) savePark(h string, mk campaign.Mark) error {
	hash := fmt.Sprintf("%016x", mk.Hash)
	rec, err := json.Marshal(parkRecord{Cycle: mk.Cycle, Hash: hash, Sum: parkSum(mk.Cycle, hash)})
	if err != nil {
		return err
	}
	return campaign.WriteAtomic(s.parkPath(h), rec)
}

// loadPark fetches a fault run's park record, ok=false when absent or
// corrupt.
func (s *stateStore) loadPark(h string) (campaign.Mark, bool) {
	data, err := os.ReadFile(s.parkPath(h))
	if err != nil {
		return campaign.Mark{}, false
	}
	var rec parkRecord
	if json.Unmarshal(data, &rec) != nil || rec.Sum != parkSum(rec.Cycle, rec.Hash) {
		return campaign.Mark{}, false
	}
	hash, err := strconv.ParseUint(rec.Hash, 16, 64)
	if err != nil {
		return campaign.Mark{}, false
	}
	return campaign.Mark{Cycle: rec.Cycle, Hash: hash}, true
}

// removePark retires a finished fault run's park record.
func (s *stateStore) removePark(h string) {
	os.Remove(s.parkPath(h))
}

// sweepRetired removes the mid-run snapshot files earlier builds parked in
// an execution directory; this build resumes by re-execution and never
// reads them.
func (s *stateStore) sweepRetired(h string) {
	os.Remove(filepath.Join(s.execDir(h), "single.snap"))
	snaps, _ := filepath.Glob(filepath.Join(s.cellsDir(h), "cell-*.snap"))
	for _, p := range snaps {
		os.Remove(p)
	}
}

// saveJob records one job id -> canonical spec binding (scoped to this
// worker: fleet members allocate ids independently).
func (s *stateStore) saveJob(id, canonical string) error {
	rec, err := json.Marshal(struct {
		ID        string `json:"id"`
		Canonical string `json:"canonical"`
	}{id, canonical})
	if err != nil {
		return err
	}
	return campaign.WriteAtomic(filepath.Join(s.jobsDir(), id+".json"), rec)
}

// rescanExec is one persisted execution found at boot.
type rescanExec struct {
	hash      string
	canonical string
	artifact  []byte        // nil when the execution was interrupted
	poisoned  *poisonRecord // non-nil when the spec is quarantined
}

// rescanJob is one persisted job record found at boot.
type rescanJob struct {
	id        string
	canonical string
}

// rescan loads every persisted execution plus this worker's job records,
// dropping records that fail to parse (a torn write from a crashed
// process) rather than refusing to boot. Corrupt executions are deleted
// only when no fresh lease guards them — a peer may be mid-creation.
// Executions and jobs come back in deterministic (lexical) order so
// re-enqueueing is reproducible.
func (s *stateStore) rescan(ttl time.Duration) ([]rescanExec, []rescanJob, error) {
	var execs []rescanExec
	ents, err := os.ReadDir(filepath.Join(s.dir, "execs"))
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		h := ent.Name()
		// unguarded: no peer holds a live lease, so destructive cleanup of
		// corrupt state (and temp litter) is safe.
		info, lerr := s.leaseInfo(h)
		unguarded := lerr == nil && (info.epoch == 0 || info.released || time.Since(info.renewed) >= ttl)
		spec, err := os.ReadFile(filepath.Join(s.execDir(h), "spec.json"))
		if err != nil || canonHash(string(spec)) != h {
			if unguarded {
				s.removeExec(h)
			}
			continue
		}
		if unguarded {
			campaign.CleanTmp(s.execDir(h))
			campaign.CleanTmp(s.leaseDir(h))
			s.sweepRetired(h)
		}
		re := rescanExec{hash: h, canonical: string(spec)}
		if art, ok := s.loadArtifact(h); ok {
			re.artifact = art
		}
		if pr, ok := s.poisonInfo(h); ok {
			re.poisoned = &pr
		}
		execs = append(execs, re)
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].hash < execs[j].hash })

	// This worker's own job records: no peer writes here, clean freely.
	campaign.CleanTmp(s.jobsDir())
	var jobsOut []rescanJob
	jents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range jents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.jobsDir(), name))
		if err != nil {
			continue
		}
		var rec struct {
			ID        string `json:"id"`
			Canonical string `json:"canonical"`
		}
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" || rec.Canonical == "" {
			os.Remove(filepath.Join(s.jobsDir(), name))
			continue
		}
		jobsOut = append(jobsOut, rescanJob{id: rec.ID, canonical: rec.Canonical})
	}
	sort.Slice(jobsOut, func(i, j int) bool { return jobsOut[i].id < jobsOut[j].id })
	return execs, jobsOut, nil
}
