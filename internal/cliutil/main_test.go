package cliutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	_, badFlag := ParseFlags(NewFlagSet("prog", io.Discard), []string{"-nope"}, io.Discard)
	for _, c := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{badFlag, 2, ""},
		{UsageError(errors.New("bad value")), 2, "prog: bad value\n"},
		{DegradedError(errors.New("campaign degraded")), 3, "prog: campaign degraded\n"},
		{errors.New("boom"), 1, "prog: boom\n"},
		{fmt.Errorf("point 0: %w", context.Canceled), 130, "prog: interrupted (point 0: context canceled); partial output flushed\n"},
	} {
		var stderr bytes.Buffer
		if code := ExitCode("prog", c.err, &stderr); code != c.code || stderr.String() != c.stderr {
			t.Errorf("ExitCode(%v) = %d, %q; want %d, %q", c.err, code, stderr.String(), c.code, c.stderr)
		}
	}
}

func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args           []string
		stop, err      bool
		stdout, stderr string
	}{
		{[]string{"-n", "3"}, false, false, "", ""},
		{[]string{"-h"}, true, false, "", "Usage of prog:"},
		{[]string{"-version"}, true, false, "prog " + Version() + "\n", ""},
		{[]string{"-nope"}, true, true, "", "flag provided but not defined: -nope"},
	} {
		var stdout, stderr bytes.Buffer
		fs := NewFlagSet("prog", &stderr)
		fs.Int("n", 0, "a number")
		stop, err := ParseFlags(fs, c.args, &stdout)
		if stop != c.stop || (err != nil) != c.err || stdout.String() != c.stdout || !strings.HasPrefix(stderr.String(), c.stderr) {
			t.Errorf("%v: stop %v, err %v, stdout %q, stderr %q", c.args, stop, err, stdout.String(), stderr.String())
		}
	}
}
