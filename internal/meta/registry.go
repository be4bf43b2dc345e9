package meta

import (
	"fmt"
	"sort"
	"strings"
)

// Scheme describes one registered metadata organization. The benchmark
// harness enumerates this registry to build its program × scheme × mode
// matrix, so adding a backend here is all it takes to get it measured.
type Scheme struct {
	Kind Kind
	Name string
	// New constructs a fresh facility. Instances share no state, so
	// concurrent runs may each call New and use the result in isolation.
	New func() Facility
}

var registry = map[string]Scheme{}

// RegisterScheme adds a scheme to the registry, rejecting invalid or
// duplicate registrations as errors so backends added at run time can
// propagate the failure instead of panicking the process.
func RegisterScheme(s Scheme) error {
	if s.Name == "" || s.New == nil {
		return fmt.Errorf("meta: scheme needs a name and a constructor")
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("meta: duplicate scheme %q", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is RegisterScheme for the init-time registration of
// built-in schemes, where a failure is a programmer error.
func MustRegister(s Scheme) {
	if err := RegisterScheme(s); err != nil {
		panic(err)
	}
}

func init() {
	MustRegister(Scheme{Kind: KindHashTable, Name: "hashtable",
		New: func() Facility { return MustHashTable(1<<20, false) }})
	MustRegister(Scheme{Kind: KindShadowSpace, Name: "shadowspace",
		New: func() Facility { return NewShadowSpace(false) }})
	MustRegister(Scheme{Kind: KindHashTableCETS, Name: "hashtable-cets",
		New: func() Facility { return MustHashTable(1<<20, true) }})
	MustRegister(Scheme{Kind: KindShadowCETS, Name: "shadow-cets",
		New: func() Facility { return NewShadowSpace(true) }})
}

// Schemes returns every registered scheme, sorted by name for stable
// matrix and report ordering.
func Schemes() []Scheme {
	out := make([]Scheme, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SchemeByName resolves a registered scheme.
func SchemeByName(name string) (Scheme, bool) {
	s, ok := registry[name]
	return s, ok
}

// ParseSchemes resolves a comma-separated scheme list ("" = all).
func ParseSchemes(list string) ([]Scheme, error) {
	if strings.TrimSpace(list) == "" {
		return Schemes(), nil
	}
	var out []Scheme
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		s, ok := SchemeByName(name)
		if !ok {
			return nil, fmt.Errorf("meta: unknown scheme %q (have %s)",
				name, strings.Join(SchemeNames(), ", "))
		}
		seen[name] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("meta: empty scheme list %q", list)
	}
	return out, nil
}

// SchemeNames returns the sorted names of all registered schemes.
func SchemeNames() []string {
	all := Schemes()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}
