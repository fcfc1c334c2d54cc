package engine

// The fixtures of the in-package tests, for the external test package
// that drives the model through package driver.
var (
	TinyConfig   = tinyConfig
	TinyPlatform = tinyPlatform
	TinyClasses  = tinyClasses
	MustRun      = mustRun
)
