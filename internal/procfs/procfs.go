// Package procfs simulates the /proc/fs/lustre and /sys/fs/lustre parameter
// tree through which Lustre exposes runtime-settable parameters. The RAG
// extraction pipeline uses it for the initial rough filter ("selects only
// writable parameters since these can be altered by STELLAR"), and the
// Configuration Runner applies settings through it.
package procfs

import (
	"fmt"
	"sort"
	"strconv"

	"stellar/internal/params"
)

// Entry is one node in the parameter tree.
type Entry struct {
	Path     string
	Name     string
	Writable bool
}

// Tree is a live parameter tree bound to a registry with current values.
type Tree struct {
	reg    *params.Registry
	values params.Config
}

// New builds a tree with default values.
func New(reg *params.Registry) *Tree {
	return &Tree{reg: reg, values: params.DefaultConfig(reg)}
}

// List enumerates all entries sorted by path, as a directory walk would.
func (t *Tree) List() []Entry {
	var out []Entry
	for _, p := range t.reg.All() {
		out = append(out, Entry{Path: p.Path, Name: p.Name, Writable: p.Writable})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WritableNames returns the names that pass the rough writability filter.
func (t *Tree) WritableNames() []string {
	var out []string
	for _, e := range t.List() {
		if e.Writable {
			out = append(out, e.Name)
		}
	}
	return out
}

// Read returns the current value of a parameter as its file content.
func (t *Tree) Read(name string) (string, error) {
	p, ok := t.reg.Get(name)
	if !ok {
		return "", fmt.Errorf("procfs: no such parameter %q", name)
	}
	if v, ok := t.values[name]; ok {
		return strconv.FormatInt(v, 10), nil
	}
	return strconv.FormatInt(p.Default, 10), nil
}

// Write sets a writable parameter. It performs only the writability check;
// range validation is the caller's concern (the kernel would reject some
// values, but many bad settings are accepted and simply behave badly).
func (t *Tree) Write(name string, value int64) error {
	p, ok := t.reg.Get(name)
	if !ok {
		return fmt.Errorf("procfs: no such parameter %q", name)
	}
	if !p.Writable {
		return fmt.Errorf("procfs: parameter %q is read-only", name)
	}
	t.values[name] = value
	return nil
}

// Apply writes a whole configuration, returning the first error.
func (t *Tree) Apply(cfg params.Config) error {
	for _, name := range cfg.Names() {
		if err := t.Write(name, cfg[name]); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a copy of the current values.
func (t *Tree) Snapshot() params.Config { return t.values.Clone() }

// SetDefaults restores all defaults in place, reusing the existing value
// map. It leaves the tree in exactly the state New would —
// writable parameters at their defaults, nothing else present (Write only
// ever adds writable names) — without allocating, which is what lets a
// pooled tree serve repeated evaluations.
func (t *Tree) SetDefaults() {
	for _, p := range t.reg.Writable() {
		t.values[p.Name] = p.Default
	}
}
