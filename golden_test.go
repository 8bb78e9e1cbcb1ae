package pmemspec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/mc"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
)

// indentJSON is the encoding every CLI report uses: two-space indent
// and a trailing newline.
func indentJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// TestGoldenDigests pins the SHA-256 of deterministic outputs at CI
// scale. Each output is built through the entry point and the JSON
// encoding of the CLI command named in the table, so the digest equals
// `sha256sum` of what that command writes, at any -parallel width. Any
// change to a simulated number or a verification verdict fails here.
// An intended change recomputes the digest with the command and edits
// the table in the same commit, where review sees it.
func TestGoldenDigests(t *testing.T) {
	// One small Figure 9 run yields both of its pinned outputs: the
	// -json stdout and the -metrics-out grid.
	fig9 := sync.OnceValues(func() ([2][]byte, error) {
		var out [2][]byte
		runner := &harness.Runner{Metrics: metrics.NewGrid()}
		rows, err := runner.Fig9(2, 50, 1)
		if err != nil {
			return out, err
		}
		out[0], err = indentJSON(map[string]any{"experiment": "fig9", "threads": 2, "rows": rows, "geomeans": harness.Geomeans(rows)})
		if err != nil {
			return out, err
		}
		var buf bytes.Buffer
		err = runner.Metrics.WriteJSON(&buf)
		out[1] = buf.Bytes()
		return out, err
	})
	cases := []struct {
		name   string
		cmd    string
		sha256 string
		output func() ([]byte, error)
	}{
		{
			name:   "fig9-json",
			cmd:    "pmemspec-bench -experiment fig9 -ops 50 -threads 2 -seed 1 -json",
			sha256: "632ca6962da7106fb81885a2958d0b8478bffaa7c6bfa583175f6e897a4b0761",
			output: func() ([]byte, error) {
				out, err := fig9()
				return out[0], err
			},
		},
		{
			name:   "fig9-metrics",
			cmd:    "pmemspec-bench -experiment fig9 -ops 50 -threads 2 -seed 1 -metrics-out FILE",
			sha256: "56ba795b0e8de8c3745918d18653683147b96149a884b1bebce9485578061425",
			output: func() ([]byte, error) {
				out, err := fig9()
				return out[1], err
			},
		},
		{
			name:   "crash",
			cmd:    "pmemspec-crash -workload queue -threads 2 -ops 12 -points 3 -maxus 100 -boundaries -boundary-budget 2 -inject-stale-ns 4000 -inject-count 3 -report FILE",
			sha256: "deb8358995274f000821e11555a4c62ad2498fb5e7d281c78d56a5cc818e9d68",
			output: func() ([]byte, error) {
				rep, err := (&harness.Runner{}).RunCampaign(harness.CampaignConfig{
					Designs:        []machine.Design{machine.PMEMSpec},
					Workloads:      []string{"queue"},
					Params:         workload.Params{Threads: 2, Ops: 12, DataSize: 64, Seed: 1},
					Points:         3,
					MaxNS:          100_000,
					Boundaries:     true,
					BoundaryBudget: 2,
					Inject:         harness.InjectionPlan{StalePeriodNS: 4000, Count: 3},
				})
				if err != nil {
					return nil, err
				}
				return indentJSON(rep)
			},
		},
		{
			name:   "litmus",
			cmd:    "pmemspec-mc -max-patterns 8 -max-schedules 24 -report FILE",
			sha256: "3adcdc883a17171f1971ac187a3d0b22a2bba4d6811e3bb6043f4125e85f5e97",
			output: func() ([]byte, error) {
				return indentJSON(mc.Run(mc.Options{MaxPatterns: 8, MaxSchedules: 24}))
			},
		},
		{
			name:   "mc",
			cmd:    "pmemspec-mc -pattern mt- -max-patterns 8 -max-schedules 24 -report FILE",
			sha256: "7c514879cebc0581f8d907b78736ce4d54c4262318d61161fffb3eb229f799f9",
			output: func() ([]byte, error) {
				return indentJSON(mc.Run(mc.Options{Pattern: "mt-", MaxPatterns: 8, MaxSchedules: 24}))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.output()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("%s: sha256 %s, want %s", tc.cmd, got, tc.sha256)
			}
		})
	}
}
