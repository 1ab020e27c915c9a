package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWith calls run with args as the command line, on a fresh flag set.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"nsyncid"}, args...)
	flag.CommandLine = flag.NewFlagSet("nsyncid", flag.ContinueOnError)
	return run()
}

// TestModeCheckedBeforeLoading pins that a bad -sync/-live combination is
// reported as such, not as the first missing file: the mode is checked
// before any signal is loaded or any detector trained.
func TestModeCheckedBeforeLoading(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.nsig")
	files := []string{"-ref", missing, "-train", missing, "-observe", missing}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sync", "dtw", "-live"}, "-live requires -sync dwm"},
		{[]string{"-sync", "none", "-live"}, "-live requires -sync dwm"},
		{[]string{"-sync", "bogus"}, `unknown synchronizer "bogus"`},
	} {
		err := runWith(t, append(tc.args, files...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// A valid mode gets as far as loading, and reports the missing file.
	if err := runWith(t, append([]string{"-sync", "dtw"}, files...)...); err == nil || !strings.Contains(err.Error(), "missing.nsig") {
		t.Errorf("run -sync dtw = %v, want the missing file", err)
	}
}
