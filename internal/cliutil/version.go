package cliutil

import (
	"fmt"
	"runtime/debug"
)

// Version renders the build identification every CLI and the daemon
// report: module version when built with one, else the VCS revision
// (with a +dirty suffix for modified trees), else "devel". The Go
// toolchain version is always appended.
func Version() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	v := info.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
		var rev string
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			v = "devel+" + rev
			if dirty {
				v += "+dirty"
			}
		}
	}
	return fmt.Sprintf("%s (%s)", v, info.GoVersion)
}
