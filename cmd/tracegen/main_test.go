package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSetBytesIndependentOfScheduling pins the trace-set producer's
// determinism contract at the command line: for the quiet environment
// (the lane-major batch expansion) and the loaded-Linux one (the
// per-execution osnoise stage), the set file is byte-identical for one
// worker at the default lane width, three workers on 8-lane groups and
// the simulator alone (-replay simulate). The two environments' sets
// must differ, or the noisy leg did not run.
func TestSetBytesIndependentOfScheduling(t *testing.T) {
	dir := t.TempDir()
	sets := map[string][]byte{}
	for _, env := range []struct {
		name  string
		flags []string
	}{
		{"quiet", nil},
		{"loaded-linux", []string{"-noise"}},
	} {
		t.Run(env.name, func(t *testing.T) {
			var want []byte
			for i, sched := range [][]string{
				{"-workers", "1"},
				{"-workers", "3", "-lanes", "8"},
				{"-replay", "simulate"},
			} {
				out := filepath.Join(dir, env.name+"-"+sched[1]+".bin")
				args := append([]string{"-n", "300", "-o", out}, env.flags...)
				var stdout, stderr bytes.Buffer
				if code := run(append(args, sched...), &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d: %s", sched, code, stderr.String())
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: %d-byte set differs from the -workers 1 set (%d bytes)", sched, len(got), len(want))
				}
			}
			sets[env.name] = want
		})
	}
	if bytes.Equal(sets["quiet"], sets["loaded-linux"]) {
		t.Fatal("-noise wrote the quiet set")
	}
}

// TestRejectsBadArguments pins the exit code of invalid runs.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-avg", "0"},
		{"-o", ""},
		{"-lanes", "65"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout %q, stderr %q)", args, code, stdout.String(), stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

// TestNonAESSetGolden pins the set bytes of two non-AES targets, quiet
// and under -noise: the plaintext draw, the calibration and the
// synthesis path of every registered target must stay as they are.
func TestNonAESSetGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		target string
		noise  bool
		sha    string
	}{
		{"present", false, "c173e41b21070c5b4d26bfc562bc04c595d81b86c411c511afc33493b3ef0901"},
		{"present", true, "d67004825a030343e123c0e3df212a22a260fdc5066ab13241b13a79b6d0e3b8"},
		{"speck64", false, "7cecf6f56dc2c3a1180613d46c6b8a07327ab9ef2f6d59523a983525e7c21ccb"},
		{"speck64", true, "4f56d6aa22cf1aac7b0b7aed1eb0908ae9676c234c44ce4b2ddf94f8cdfbe6fc"},
	} {
		out := filepath.Join(dir, c.target+".bin")
		args := []string{"-target", c.target, "-n", "200", "-o", out}
		if c.noise {
			args = append(args, "-noise")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != c.sha {
			t.Errorf("%v: set sha256 %s, want %s", args, sum, c.sha)
		}
	}
}
