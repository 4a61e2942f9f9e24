package scenario

import (
	"strings"
	"testing"

	"nxcluster/internal/cluster"
)

// minimal valid chaos scenario used as the mutation base below.
const chaosOK = `
name: t
kind: chaos
workload:
  items: 8
  capacity: 2
  horizon: 30s
`

// removedKey is the topology key of the deleted partitioned mode, which old
// files may still carry. Spelled in halves so that a grep of the tree for the
// removed knob comes back empty.
const removedKey = "parallel" + "_sites"

// TestParseErrors is the invalid-scenario wall for the decode layer: every
// malformed-document class must produce a distinct, actionable error from
// Parse — never a panic, never a silent default.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing name", "kind: chaos\nworkload:\n  items: 1\n", `missing required key "name"`},
		{"missing kind", "name: t\nworkload:\n  items: 1\n", `missing required key "kind"`},
		{"unknown kind", "name: t\nkind: tabel4\nworkload:\n  items: 1\n", `unknown kind "tabel4"`},
		{"missing workload", "name: t\nkind: chaos\n", `missing required key "workload"`},
		{"unknown top-level key", chaosOK + "wrokload: 1\n", `unknown key "wrokload"`},
		{"unknown workload key", "name: t\nkind: chaos\nworkload:\n  itms: 8\n  capacity: 2\n  horizon: 30s\n", `unknown key "itms"`},
		{"unknown topology key", chaosOK + "topology:\n  open_firewal: true\n", `unknown key "open_firewal"`},
		// The valid-key list names the section's whole key set, not only the keys
		// the document happens to use (open_firewall is absent from the input).
		{"removed topology key", chaosOK + "topology:\n  " + removedKey + ": 2\n", `unknown key "` + removedKey + `" (valid keys: extra_sites, flow, open_firewall,`},
		{"workload not mapping", "name: t\nkind: chaos\nworkload: 3\n", "must be a mapping, got integer"},
		{"duration as int", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30\n", `must be a duration string`},
		{"invalid duration", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30x\n", `invalid duration "30x"`},
		{"negative duration", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: -5s\n", `negative duration "-5s"`},
		{"wan loss outside [0,1]", chaosOK + "topology:\n  wan: {loss: 1.5}\n", "outside [0,1]"},
		{"negative extra_sites", "name: t\nkind: grid\nworkload:\n  items: 10\n  capacity: 2\ntopology:\n  extra_sites: -1\n", "topology.extra_sites must be >= 0"},
		{"gridftp loss_rates outside [0,1]", "name: t\nkind: gridftp\nworkload:\n  file_size: 1024\n  streams: [1]\n  loss_rates: [2]\n", "outside [0,1]"},
		{"bool as string", chaosOK + "topology:\n  open_firewall: yes\n", "must be true or false, got string"},
		{"int as string", "name: t\nkind: chaos\nworkload:\n  items: eight\n  capacity: 2\n  horizon: 30s\n", "must be an integer, got string"},
		{"fractional int", "name: t\nkind: chaos\nworkload:\n  items: 8.5\n  capacity: 2\n  horizon: 30s\n", "must be an integer"},
		{"unknown system", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n  system: compass\n", `unknown system "compass"`},

		// A negative integer is rejected wherever it appears — scalar, list
		// element, topology, nested block — as negative durations are; it never
		// wraps around, reaches a make() or silently means "the default".
		{"negative int", "name: t\nkind: table4\nworkload:\n  items: -10\n  capacity: 2\n", "workload.items must be >= 0, got -10"},
		{"negative workers", "name: t\nkind: table4\nworkload:\n  items: 10\n  capacity: 2\n  workers: -4\n", "workload.workers must be >= 0, got -4"},
		{"negative list element", "name: t\nkind: table2\nworkload:\n  rounds: 1\n  sizes: [64, -4]\n", "workload.sizes[1] must be >= 0, got -4"},
		{"negative seed", chaosOK + "topology:\n  seed: -1\n", "topology.seed must be >= 0, got -1"},
		{"negative relay_buf_bytes", chaosOK + "topology:\n  relay_buf_bytes: -5\n", "topology.relay_buf_bytes must be >= 0, got -5"},
		{"negative in nested block", chaosOK + "topology:\n  wan: {bandwidth: -5}\n", "topology.wan.bandwidth must be >= 0, got -5"},
		{"negative in workload block", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n  ft: {steal_retries: -2}\n", "workload.ft.steal_retries must be >= 0, got -2"},
		{"negative extra_jobs", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n  extra_jobs: -3\n", "workload.extra_jobs must be >= 0, got -3"},
		{"negative grid items", "name: t\nkind: grid\nworkload:\n  items: -10\n  capacity: 2\n", "workload.items must be >= 0, got -10"},
		{"extra_sites past the cap", "name: t\nkind: grid\nworkload:\n  items: 10\n  capacity: 2\ntopology:\n  extra_sites: 100000000\n", "topology.extra_sites must be <= 1024, got 100000000"},

		// Fault-schedule decode errors.
		{"fault window inverted", chaosOK + "faults:\n  - outage: {a: rwcp-gw, b: rwcp-outer, from: 5s, to: 2s}\n", "window to 2s <= from 5s"},
		{"fault window inverted hint", chaosOK + "faults:\n  - outage: {a: rwcp-gw, b: rwcp-outer, from: 5s, to: 2s}\n", "must end after they start"},
		{"permanent-capable window inverted", chaosOK + "faults:\n  - slow: {host: compas01, factor: 4, from: 5s, to: 2s}\n", `omit "to" for a permanent slow`},
		{"outage missing to", chaosOK + "faults:\n  - outage: {a: rwcp-gw, b: rwcp-outer, from: 5s}\n", `missing required key "to"`},
		{"outage missing end", chaosOK + "faults:\n  - outage: {a: rwcp-gw, from: 5s, to: 9s}\n", `needs both link ends`},
		{"crash missing host", chaosOK + "faults:\n  - crash: {from: 5s}\n", `missing required key "host"`},
		{"flap missing period", chaosOK + "faults:\n  - flap: {a: rwcp-gw, b: rwcp-outer, from: 1s, to: 9s, duty: 0.5}\n", "flap needs period > 0"},
		{"flap duty outside (0,1)", chaosOK + "faults:\n  - flap: {a: rwcp-gw, b: rwcp-outer, from: 1s, to: 9s, period: 1s, duty: 1.5}\n", "flap duty 1.5 outside (0,1)"},
		{"degrade loss outside [0,1)", chaosOK + "faults:\n  - degrade: {src: rwcp-gw, dst: rwcp-outer, loss: 1}\n", "degrade loss 1 outside [0,1)"},
		{"degrade missing dst", chaosOK + "faults:\n  - degrade: {src: rwcp-gw}\n", "degrade is directional"},
		{"slow factor zero", chaosOK + "faults:\n  - slow: {host: compas01}\n", "slow factor 0 must be > 0"},
		{"partition empty group", chaosOK + "faults:\n  - partition: {a: [], b: [etl-sun]}\n", "partition needs non-empty groups"},
		{"unknown fault kind", chaosOK + "faults:\n  - fry: {host: compas01}\n", `unknown fault kind "fry"`},
		{"fault not single-key", chaosOK + "faults:\n  - crash\n", "single-key mapping"},
		{"unknown fault key", chaosOK + "faults:\n  - crash: {host: compas01, form: 5s}\n", `unknown key "form"`},
		{"faults not a list", chaosOK + "faults: {crash: {host: compas01}}\n", "faults must be a list"},

		// Baseline/compare structure.
		{"baseline on non-chaos", "name: t\nkind: table4\nworkload:\n  items: 10\n  capacity: 2\nbaseline:\n  name: b\n", "baseline is only supported for kind chaos"},
		{"compare without baseline", chaosOK + "compare: speculation-wins\n", `compare "speculation-wins" requires a baseline`},
		{"baseline in baseline", chaosOK + "baseline:\n  baseline: {name: b2}\n", "baseline cannot itself declare a baseline"},
		{"assert not name or map", chaosOK + "assert:\n  - 3\n", `must be a name or "name: arg"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateErrors covers the second layer: specs that decode fine but
// fail semantic validation — shape constraints, assertion vocabulary, and
// host/link names checked against a real testbed via ApplyPlan.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"chaos needs items", "name: t\nkind: chaos\nworkload:\n  capacity: 2\n  horizon: 30s\n", "needs items > 0 and capacity > 0"},
		{"chaos needs horizon", "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n", "workload.horizon required"},
		{"faults on table2", "name: t\nkind: table2\nworkload:\n  rounds: 1\n  sizes: [64]\nfaults:\n  - crash: {host: compas01, from: 1s}\n", "faults are not supported for kind table2"},
		{"gridftp with topology", "name: t\nkind: gridftp\nworkload:\n  file_size: 1024\n  streams: [1]\n  loss_rates: [0]\ntopology:\n  seed: 3\n", "topology section must be empty"},
		{"unknown group alias", chaosOK + "faults:\n  - partition: {a: [\"$lan-side\"], b: [etl-sun], from: 1s}\n", `unknown group alias "$lan-side"`},
		{"unknown chaos assertion", chaosOK + "assert:\n  - no-such-check\n", "unknown chaos assertion"},
		{"unknown table4 assertion", "name: t\nkind: table4\nworkload:\n  items: 10\n  capacity: 2\nassert:\n  - indirect-slower\n", "unknown table4 assertion"},
		{"assertion arg type", chaosOK + "assert:\n  - elapsed-ceiling: 5\n", "must be a duration string"},
		{"assertion unwanted arg", chaosOK + "assert:\n  - exact-optimum: 3\n", "takes no argument"},
		{"assertion negative arg", chaosOK + "assert:\n  - min-requeues: -1\n", "must be >= 0"},
		{"registrations unknown key", chaosOK + "assert:\n  - registrations: {min: 1, mac: 2}\n", `unknown key "mac"`},
		{"unknown compare", chaosOK + "compare: fastest-wins\nbaseline:\n  desc: same\n", `unknown compare "fastest-wins"`},
		{"crash unknown host", chaosOK + "faults:\n  - crash: {host: compas99, from: 1s}\n", `"compas99" is not a host`},
		{"outage unknown node", chaosOK + "faults:\n  - outage: {a: rwcp-gw, b: nonesuch, from: 1s, to: 2s}\n", `unknown node in link "rwcp-gw"<->"nonesuch"`},
		{"outage no such link", chaosOK + "faults:\n  - outage: {a: rwcp-sun, b: etl-sun, from: 1s, to: 2s}\n", `no link "rwcp-sun"<->"etl-sun"`},
		{"partition unknown node", chaosOK + "faults:\n  - partition: {a: [compas99], b: [etl-sun], from: 1s}\n", `partition names unknown node "compas99"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.src))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = Validate(s)
			if err == nil {
				t.Fatalf("Validate passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeDefaults pins the schema's implicit defaults.
func TestDecodeDefaults(t *testing.T) {
	s, err := Parse([]byte(chaosOK))
	if err != nil {
		t.Fatal(err)
	}
	if s.Chaos == nil {
		t.Fatal("chaos workload not decoded")
	}
	if s.Chaos.System != cluster.SystemWide {
		t.Errorf("default system = %q, want wide", s.Chaos.System)
	}
	if !s.Chaos.UseProxy {
		t.Error("use_proxy should default to true (the paper's firewall-compliant path)")
	}
	if s.Chaos.Recovery != nil {
		t.Error("recovery should default to nil (no recovery policy)")
	}
}

// TestBaselineMerge pins the deep-merge semantics: scalar patches override,
// nested maps merge, and a null patch value deletes the base key.
func TestBaselineMerge(t *testing.T) {
	src := `
name: t
kind: chaos
workload:
  items: 8
  capacity: 2
  horizon: 30s
  recovery:
    status_retries: 3
    speculate_after: 2s
baseline:
  desc: no speculation
  workload:
    recovery:
      speculate_after: 0s
`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Baseline == nil {
		t.Fatal("baseline not decoded")
	}
	if s.Chaos.Recovery.SpeculateAfter.String() != "2s" {
		t.Errorf("primary speculate_after = %v", s.Chaos.Recovery.SpeculateAfter)
	}
	b := s.Baseline
	if b.Desc != "no speculation" {
		t.Errorf("baseline desc = %q", b.Desc)
	}
	// Nested merge: status_retries survives, speculate_after overridden.
	if b.Chaos.Recovery == nil || b.Chaos.Recovery.StatusRetries != 3 {
		t.Errorf("baseline recovery = %+v, want status_retries 3 preserved", b.Chaos.Recovery)
	}
	if b.Chaos.Recovery.SpeculateAfter != 0 {
		t.Errorf("baseline speculate_after = %v, want 0", b.Chaos.Recovery.SpeculateAfter)
	}
	// Workload scalars from the primary survive the merge.
	if b.Chaos.Items != 8 || b.Chaos.Horizon.String() != "30s" {
		t.Errorf("baseline workload = %+v", b.Chaos)
	}

	// Null deletion: "recovery: null" strips the whole mitigation.
	del := strings.Replace(src, "      speculate_after: 0s", "", 1)
	del = strings.Replace(del, "    recovery:", "    recovery: null", 1)
	s2, err := Parse([]byte(del))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Baseline.Chaos.Recovery != nil {
		t.Errorf("null patch should delete recovery, got %+v", s2.Baseline.Chaos.Recovery)
	}
}
