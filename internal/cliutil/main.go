package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Main is a front end's whole main function. run is the command: it
// parses args, writes its output to stdout and its diagnostics to
// stderr, and returns instead of exiting, so every deferred flush runs
// on every path. Main runs it under InterruptContext and exits with the
// status ExitCode maps its error to.
func Main(prog string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, stop := InterruptContext()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(ExitCode(prog, err, os.Stderr))
}

// ExitCode maps a command's error to its exit status and writes the
// command's final stderr line: 0 for nil; 130 and "interrupted
// (…); partial output flushed" for context.Canceled; otherwise
// "prog: err" and 2 for a UsageError (nothing more for a bad flag, which
// the flag package reported), 3 for a DegradedError, else 1.
func ExitCode(prog string, err error, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "%s: interrupted (%v); partial output flushed\n", prog, err)
		return 130
	}
	ee := &exitError{code: 1}
	if !errors.As(err, &ee) || !ee.reported {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	}
	return ee.code
}

// exitError carries an exit status other than 1; reported marks an
// error its source has already written to stderr.
type exitError struct {
	code     int
	reported bool
	err      error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// UsageError marks err as a command-line usage error: exit status 2.
func UsageError(err error) error { return &exitError{code: 2, err: err} }

// DegradedError marks err as a campaign that completed with quarantined
// points: exit status 3.
func DegradedError(err error) error { return &exitError{code: 3, err: err} }

// NewFlagSet returns a front end's flag set, with -version registered:
// parse errors come back from ParseFlags rather than exiting, and usage
// goes to stderr.
func NewFlagSet(prog string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Bool("version", false, "print build information and exit")
	return fs
}

// ParseFlags parses args into fs and handles what ends a command before
// it starts: -h and a bad flag, which the flag package has reported on
// stderr, and -version, which ParseFlags prints on stdout as "prog
// Version()". stop says to return err at once: nil after -h and
// -version, an already reported usage error after a bad flag.
func ParseFlags(fs *flag.FlagSet, args []string, stdout io.Writer) (stop bool, err error) {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return true, nil
	case err != nil:
		return true, &exitError{code: 2, reported: true, err: err}
	case fs.Lookup("version").Value.String() == "true":
		fmt.Fprintln(stdout, fs.Name(), Version())
		return true, nil
	}
	return false, nil
}
