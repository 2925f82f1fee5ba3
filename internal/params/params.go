// Package params holds the Lustre parameter metadata used across STELLAR:
// the ground-truth registry the simulated cluster exposes, configuration
// values, range validation, and the dependent-range expression language.
package params

import (
	"fmt"
	"sort"
)

// Kind describes a parameter's value domain.
type Kind int

const (
	KindInt   Kind = iota // plain integer (counts, windows)
	KindBytes             // size in bytes
	KindMB                // size in MiB
	KindBool              // binary on/off
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindBytes:
		return "bytes"
	case KindMB:
		return "MiB"
	case KindBool:
		return "bool"
	}
	return "unknown"
}

// DocQuality grades how well the synthetic manual documents a parameter; it
// drives both manual generation and the honest behaviour of the RAG
// sufficiency judge.
type DocQuality int

const (
	DocNone DocQuality = iota // not mentioned in the manual at all
	DocThin                   // mentioned, but no usable definition or range
	DocFull                   // full definition, I/O impact, and valid range
)

// Param is the ground-truth description of one Lustre parameter as the
// simulated platform knows it. The RAG pipeline never reads this struct
// directly — it reads the manual text generated from it — so retrieval or
// extraction failures surface as real failures.
type Param struct {
	Name     string // canonical dotted name, e.g. "osc.max_rpcs_in_flight"
	Path     string // simulated procfs path
	Writable bool   // runtime-settable (the rough pre-filter, §4.2.2)
	Binary   bool   // excluded from tuning as a user trade-off (§4.2.2)
	Kind     Kind

	Default int64
	Min     int64
	Max     int64  // used when MaxExpr is empty
	MinExpr string // optional expression bound
	MaxExpr string // optional expression bound
	Unit    string

	// Definition is the correct one-line definition (ground truth for the
	// Figure 2 scoring and the seed for the manual section).
	Definition string
	// Impact describes the intended I/O performance effect, if any.
	Impact string
	// Doc grades the synthetic manual's coverage.
	Doc DocQuality
	// PerfCritical is ground truth for the importance filter: parameters
	// the paper's pipeline should keep.
	PerfCritical bool
}

// RangeText renders the valid range as the manual prints it.
func (p *Param) RangeText() string {
	lo := fmt.Sprintf("%d", p.Min)
	if p.MinExpr != "" {
		lo = p.MinExpr
	}
	hi := fmt.Sprintf("%d", p.Max)
	if p.MaxExpr != "" {
		hi = p.MaxExpr
	}
	return lo + " to " + hi
}

// Bounds evaluates the effective [min,max] under env.
func (p *Param) Bounds(env Env) (lo, hi int64, err error) {
	lo, hi = p.Min, p.Max
	if p.MinExpr != "" {
		if lo, err = EvalBound(p.MinExpr, env); err != nil {
			return 0, 0, fmt.Errorf("%s min: %w", p.Name, err)
		}
	}
	if p.MaxExpr != "" {
		if hi, err = EvalBound(p.MaxExpr, env); err != nil {
			return 0, 0, fmt.Errorf("%s max: %w", p.Name, err)
		}
	}
	return lo, hi, nil
}

// Registry is the full parameter table, keyed by name.
type Registry struct {
	byName map[string]*Param
	order  []string
}

// NewRegistry builds a registry from a parameter list, rejecting duplicates.
func NewRegistry(list []*Param) (*Registry, error) {
	r := &Registry{byName: make(map[string]*Param, len(list))}
	for _, p := range list {
		if p.Name == "" {
			return nil, fmt.Errorf("params: parameter with empty name")
		}
		if _, dup := r.byName[p.Name]; dup {
			return nil, fmt.Errorf("params: duplicate parameter %q", p.Name)
		}
		r.byName[p.Name] = p
		r.order = append(r.order, p.Name)
	}
	return r, nil
}

// Get looks a parameter up by name.
func (r *Registry) Get(name string) (*Param, bool) {
	p, ok := r.byName[name]
	return p, ok
}

// All returns all parameters in registry order.
func (r *Registry) All() []*Param {
	out := make([]*Param, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// Writable returns the runtime-settable parameters.
func (r *Registry) Writable() []*Param {
	var out []*Param
	for _, p := range r.All() {
		if p.Writable {
			out = append(out, p)
		}
	}
	return out
}

// Config is a full assignment of values to writable parameters. Values for
// KindBool parameters are 0/1. Missing entries mean "default".
type Config map[string]int64

// DefaultConfig returns the Lustre default configuration for reg.
func DefaultConfig(reg *Registry) Config {
	c := Config{}
	for _, p := range reg.Writable() {
		c[p.Name] = p.Default
	}
	return c
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Get returns the value for name, or def when unset.
func (c Config) Get(name string, def int64) int64 {
	if v, ok := c[name]; ok {
		return v
	}
	return def
}

// Names returns the configured parameter names, sorted.
func (c Config) Names() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ValidationError describes an out-of-range or unknown setting.
type ValidationError struct {
	Param  string
	Value  int64
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("params: %s=%d invalid: %s", e.Param, e.Value, e.Reason)
}

// Validate checks every entry in c against reg bounds under env. Dependent
// bounds are evaluated with the candidate config overlaid on env so that
// e.g. llite.max_read_ahead_per_file_mb is checked against the candidate
// llite.max_read_ahead_mb.
func Validate(c Config, reg *Registry, env Env) error {
	full := make(Env, len(env)+len(c))
	for k, v := range env {
		full[k] = v
	}
	for k, v := range c {
		full[k] = v
	}
	for name, v := range c {
		p, ok := reg.Get(name)
		if !ok {
			return &ValidationError{Param: name, Value: v, Reason: "unknown parameter"}
		}
		if !p.Writable {
			return &ValidationError{Param: name, Value: v, Reason: "parameter is not writable"}
		}
		lo, hi, err := p.Bounds(full)
		if err != nil {
			return err
		}
		if v < lo || v > hi {
			return &ValidationError{Param: name, Value: v,
				Reason: fmt.Sprintf("outside valid range [%d, %d]", lo, hi)}
		}
	}
	return nil
}

// Clamp forces every entry of c into its valid range under env, returning
// the adjusted copy and the names that were clamped. The Configuration
// Runner uses this as a safety net when an agent (without RAG ranges, per
// the ablation discussion) proposes invalid values.
func Clamp(c Config, reg *Registry, env Env) (Config, []string) {
	full := make(Env, len(env)+len(c))
	for k, v := range env {
		full[k] = v
	}
	for k, v := range c {
		full[k] = v
	}
	out := c.Clone()
	clampedSet := map[string]bool{}
	for _, name := range c.Names() {
		if _, ok := reg.Get(name); !ok {
			delete(out, name)
			clampedSet[name] = true
		}
	}
	// Dependent bounds (e.g. mdc.max_mod_rpcs_in_flight <
	// mdc.max_rpcs_in_flight) may reference parameters clamped later in the
	// iteration, so run to a fixed point; one-level dependency chains
	// converge in two passes.
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, name := range out.Names() {
			p, _ := reg.Get(name)
			lo, hi, err := p.Bounds(full)
			if err != nil {
				continue
			}
			v := out[name]
			if v < lo {
				out[name], full[name] = lo, lo
				clampedSet[name] = true
				changed = true
			} else if v > hi {
				out[name], full[name] = hi, hi
				clampedSet[name] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var clamped []string
	for n := range clampedSet {
		clamped = append(clamped, n)
	}
	sort.Strings(clamped)
	return out, clamped
}
