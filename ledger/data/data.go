// Package data embeds the benchmark's frozen inputs and oracle, written
// by cmd/freeze: suite.json (the reference-engine answer of every suite
// cell) and serve-hot.json / serve-cold.json (the generated serve
// programs with their per-configuration answers).
package data

import _ "embed"

// Suite is suite.json.
//
//go:embed suite.json
var Suite []byte

// ServeHot is serve-hot.json.
//
//go:embed serve-hot.json
var ServeHot []byte

// ServeCold is serve-cold.json.
//
//go:embed serve-cold.json
var ServeCold []byte
