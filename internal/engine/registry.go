package engine

import "fmt"

// The strategy registry: every runnable strategy variant is registered
// here by name, and every driver — the Session methods, the campaign
// runner, the cmd front ends — resolves strategies from it. Adding a discipline therefore needs no engine edits: implement
// iosched.Arbiter, register a named Strategy for it (typically from an
// init function), and each sweep, comparison and CLI picks it up.
//
// Registration is meant for init time and is not synchronised; the
// canonical variants register in this package's init in the paper's
// legend order, so AllStrategies()[:7] reproduces the §6 legend.
var (
	registryNames  []string
	registryByName = map[string]func() Strategy{}
)

// RegisterStrategy adds a named strategy constructor to the registry. The
// name must be non-empty, unused, and equal to the Name() of the
// constructed strategy (so lookups and result labels agree); violations
// panic, as they are programming errors surfaced at init.
func RegisterStrategy(name string, mk func() Strategy) {
	if name == "" || mk == nil {
		panic("engine: RegisterStrategy with empty name or nil constructor")
	}
	if _, dup := registryByName[name]; dup {
		panic(fmt.Sprintf("engine: strategy %q registered twice", name))
	}
	if got := mk().Name(); got != name {
		panic(fmt.Sprintf("engine: strategy registered as %q but names itself %q", name, got))
	}
	registryByName[name] = mk
	registryNames = append(registryNames, name)
}

// StrategyByName resolves a registered label (as produced by
// Strategy.Name, e.g. "Ordered-NB-Daly") to its Strategy. It reports
// false for unknown names.
func StrategyByName(name string) (Strategy, bool) {
	mk, ok := registryByName[name]
	if !ok {
		return Strategy{}, false
	}
	return mk(), true
}

// StrategyNames returns the registered names in registration order (the
// seven paper variants first, then the extensions).
func StrategyNames() []string {
	out := make([]string, len(registryNames))
	copy(out, registryNames)
	return out
}

// AllStrategies returns every registered strategy in registration order:
// the paper's seven legend variants first, then the registry extensions.
func AllStrategies() []Strategy {
	out := make([]Strategy, 0, len(registryNames))
	for _, name := range registryNames {
		out = append(out, registryByName[name]())
	}
	return out
}

// legendCount is the number of §6 legend variants leading the registry.
const legendCount = 7

// LegendStrategies returns exactly the paper's seven §6 legend variants,
// in legend order — the fixed set the figure reproductions evaluate,
// unaffected by registry extensions.
func LegendStrategies() []Strategy {
	return AllStrategies()[:legendCount]
}
