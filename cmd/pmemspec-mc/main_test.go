package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelectionErrors: a -designs typo or a -pattern that matches
// nothing must fail rather than pass a sweep that checked no cell.
// Design names match case-insensitively, as litmus.Select does.
func TestSelectionErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"unknown-design", []string{"-designs", "IntelX68"}, 2, "valid: IntelX86, DPO, HOPS, StrandWeaver, PMEM-Spec"},
		{"one-unknown-design", []string{"-designs", "DPO,IntelX68", "-pattern", "mt-cross-bare"}, 2, `unknown design "IntelX68"`},
		{"no-pattern", []string{"-pattern", "nosuch"}, 1, "no cells"},
		{"case-insensitive", []string{"-designs", "intelx86", "-pattern", "mt-cross-bare"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d (stderr %q)", got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
