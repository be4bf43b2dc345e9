// Package report holds the benchmark's result format and the order
// statistics the runner and the compare command share.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON line the benchmark prints last on standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is one run as written to the results directory: the printed
// result plus the rows behind it.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
	// Programs holds per-program rows (seconds by "<metric>.<program>"),
	// reported by compare as per-program deltas.
	Programs map[string]float64 `json:"programs,omitempty"`
	// Failures lists the first failed operations, for diagnosis.
	Failures []string `json:"failures,omitempty"`
	// Spans is the traced run's span log (nil when untraced).
	Spans []Span `json:"spans,omitempty"`
}

// Span is one timed call across a layer boundary in a traced run.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Op     string `json:"op"` // the cell or request the span belongs to
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the Go heap bytes allocated while the span was open.
	Alloc uint64 `json:"alloc_bytes"`
}

// ReadRecord loads one record file.
func ReadRecord(path string) (*Record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Median returns the median of values (0 for none).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method). With fewer than two values both are the single value.
func Quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation between closest ranks.
func Percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
