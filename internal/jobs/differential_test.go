package jobs

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"sr2201/internal/campaign"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
)

// repoRoot walks up from the working directory to the module root, where the
// cmd/ binaries live.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// cliStdout runs one of the repo's CLIs and returns its stdout. A non-zero
// exit is fine when allowFail (mdxfault exits 1 on an undrained run; the
// report on stdout is still the artifact).
func cliStdout(t *testing.T, root string, allowFail bool, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil && !allowFail {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go run %v: %v\nstderr:\n%s", args, err, ee.Stderr)
		}
		t.Fatalf("go run %v: %v", args, err)
	}
	return out
}

// jobArtifact submits a spec at the given pool width and returns the
// finished artifact.
func jobArtifact(t *testing.T, spec Spec, parallel int) []byte {
	t.Helper()
	m := NewManager(Config{Workers: 2, Parallel: parallel})
	defer m.Stop()
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	artifact, ok, err := m.Artifact(id)
	if err != nil || !ok {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	return artifact
}

// TestDifferentialCLIvsServer is the cross-boundary determinism contract: for
// a pinned spec matrix, the job artifact must equal the corresponding CLI
// stdout byte for byte, at pool width 1 and at width 4.
func TestDifferentialCLIvsServer(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run subprocesses")
	}
	root := repoRoot(t)

	cases := []struct {
		name      string
		spec      Spec
		allowFail bool
		cli       func(parallel string) []string
	}{
		{
			name: "mdxbench_quick_E1_F1",
			spec: Spec{Kind: KindExperiments, Experiments: &ExperimentsSpec{IDs: []string{"E1", "F1"}, Quick: true}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxbench", "-quick", "-exp", "E1,F1", "-parallel", p}
			},
		},
		{
			name: "mdxfault_single_retransmit",
			spec: Spec{Kind: KindFault, Fault: &FaultSpec{
				Shape: "4x4", Fails: []string{"rtc:1,1@40"}, Pattern: "shift+5",
				Waves: 2, Inject: inject.Options{Retransmit: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-shape", "4x4", "-fail", "rtc:1,1@40",
					"-waves", "2", "-retransmit"}
			},
		},
		{
			name: "mdxfault_single_undrained",
			spec: Spec{Kind: KindFault, Fault: &FaultSpec{
				Shape: "4x4", Fails: []string{"rtc:1,1@40"}, Pattern: "shift+5", Waves: 2,
			}},
			allowFail: true, // lost packets, exit 1 — the report must still match
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-shape", "4x4", "-fail", "rtc:1,1@40", "-waves", "2"}
			},
		},
		{
			// The paper's Fig. 9 deadlocking configuration (separate detour
			// crossbar) runs to completion under deadlock recovery; the
			// recovery event lines must match the CLI byte for byte.
			name: "mdxfault_fig9_recovery",
			spec: Spec{Kind: KindFault, Fault: &FaultSpec{
				Shape: "4x4", Pattern: "pair:0,1>2,2", Waves: 1, Gap: 1, PacketSize: 24,
				Presets: []string{"rtc:2,1"}, Broadcasts: []string{"3,2@0"},
				Inject:   inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
				Recovery: recovery.Options{Enabled: true, StallThreshold: 256},
				Variant:  campaign.VariantText{SXB: "0,0", DXB: "0,3", DXBSeparate: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-shape", "4x4", "-dxb-separate",
					"-sxb", "0,0", "-dxb", "0,3", "-preset", "rtc:2,1",
					"-patterns", "pair:0,1>2,2", "-broadcast", "3,2@0", "-packet", "24",
					"-waves", "1", "-gap", "1", "-retransmit", "-retry-after", "32",
					"-stall", "256", "-recover", "-stall-threshold", "256"}
			},
		},
		{
			// A HyperX single run with a mid-run link fault: the topology
			// preamble line, the link-fault event rendering, and the
			// fault-tolerant detour accounting must all match the CLI.
			name: "mdxfault_hyperx_link",
			spec: Spec{Kind: KindFault, Fault: &FaultSpec{
				Shape: "4x4", Topology: "hyperx", Fails: []string{"link:0,0-3,0@60"},
				Pattern: "shift+5", Waves: 4, Inject: inject.Options{Retransmit: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-shape", "4x4", "-topo", "hyperx",
					"-fail", "link:0,0-3,0@60", "-waves", "4", "-retransmit"}
			},
		},
		{
			// A full-mesh campaign: placements include every router and every
			// link pair, and the link-dim0 class rows must match the CLI at
			// both pool widths.
			name: "mdxfault_fullmesh_campaign",
			spec: Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
				Shape: "8", Topology: "fullmesh", Epochs: []int64{12}, Patterns: []string{"shift+3"},
				Inject: inject.Options{Retransmit: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-campaign", "-shape", "8", "-topo", "fullmesh",
					"-epochs", "12", "-patterns", "shift+3", "-retransmit", "-parallel", p}
			},
		},
		{
			// The escape-VC adaptive machine across the differential
			// boundary: a single-fault campaign on two lanes per wire with
			// the recovery supervisor armed. The artifact — including the
			// zero-recovery accounting the adaptive design owes — must
			// match the CLI byte for byte at both pool widths.
			name: "mdxfault_adaptive_campaign",
			spec: Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
				Shape: "4x4", Epochs: []int64{12}, Patterns: []string{"shift+5"},
				Inject:   inject.Options{Retransmit: true},
				Recovery: recovery.Options{Enabled: true, StallThreshold: 256},
				Variant:  campaign.VariantText{VCs: 2, Adaptive: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-campaign", "-shape", "4x4",
					"-epochs", "12", "-patterns", "shift+5", "-retransmit",
					"-recover", "-stall-threshold", "256",
					"-vcs", "2", "-adaptive", "-parallel", p}
			},
		},
		{
			name: "mdxfault_campaign",
			spec: Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
				Shape: "4x4", Epochs: []int64{12, 60}, Patterns: []string{"shift+5", "reverse"},
				Inject: inject.Options{Retransmit: true},
			}},
			cli: func(p string) []string {
				return []string{"sr2201/cmd/mdxfault", "-campaign", "-shape", "4x4",
					"-epochs", "12,60", "-patterns", "shift+5,reverse", "-retransmit", "-parallel", p}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := cliStdout(t, root, tc.allowFail, tc.cli("1")...)
			if len(want) == 0 {
				t.Fatal("CLI produced no stdout")
			}
			// The CLI's own output must not depend on its pool width either.
			if wide := cliStdout(t, root, tc.allowFail, tc.cli("4")...); string(wide) != string(want) {
				t.Errorf("CLI stdout differs between -parallel 1 and 4")
			}
			for _, parallel := range []int{1, 4} {
				got := jobArtifact(t, tc.spec, parallel)
				if string(got) != string(want) {
					t.Errorf("artifact at parallel=%d differs from CLI stdout:\n--- CLI ---\n%s\n--- job ---\n%s",
						parallel, want, got)
				}
			}
		})
	}
}
