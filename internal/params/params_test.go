package params

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseExprBasics(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want int64
	}{
		{"5", nil, 5},
		{"2 + 3 * 4", nil, 14},
		{"(2 + 3) * 4", nil, 20},
		{"memory_mb / 2", Env{"memory_mb": 200704}, 100352},
		{"llite.max_read_ahead_mb / 2", Env{"llite.max_read_ahead_mb": 64}, 32},
		{"mdc.max_rpcs_in_flight - 1", Env{"mdc.max_rpcs_in_flight": 8}, 7},
		{"ost_count", Env{"ost_count": 5}, 5},
		{"1K", nil, 1024},
		{"4M", nil, 4 * 1024 * 1024},
		{"1G", nil, 1 << 30},
		{"memory_mb * 3 / 4", Env{"memory_mb": 100}, 75},
		{"-3 + 10", nil, 7},
		{"10 - 2 - 3", nil, 5}, // left associative
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got, err := e.Eval(c.env)
		if err != nil {
			t.Fatalf("%q eval: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{"", "2 +", "(2", "2 & 3", "foo bar", ")", "2 2"}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestExprEvalErrors(t *testing.T) {
	e, err := ParseExpr("a / b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(Env{"a": 1, "b": 0}); err == nil {
		t.Error("division by zero not reported")
	}
	if _, err := e.Eval(Env{"a": 1}); err == nil {
		t.Error("unknown identifier not reported")
	}
}

// Property: integer arithmetic identities hold in the evaluator.
func TestExprArithmeticProperty(t *testing.T) {
	f := func(a, b int32) bool {
		e, err := ParseExpr("x + y")
		if err != nil {
			return false
		}
		v, err := e.Eval(Env{"x": int64(a), "y": int64(b)})
		return err == nil && v == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLustreRegistryShape(t *testing.T) {
	reg := Lustre()
	if n := len(reg.All()); n < 35 {
		t.Fatalf("registry has %d parameters, want >= 35", n)
	}
	tun := TunableNames(reg)
	if len(tun) != 13 {
		t.Fatalf("expected exactly 13 ground-truth tunables, got %d: %v", len(tun), tun)
	}
	for _, want := range []string{
		"lov.stripe_count", "lov.stripe_size", "osc.max_rpcs_in_flight",
		"osc.max_pages_per_rpc", "osc.max_dirty_mb", "osc.short_io_bytes",
		"llite.max_read_ahead_mb", "llite.max_read_ahead_per_file_mb",
		"llite.max_cached_mb", "llite.statahead_max",
		"mdc.max_rpcs_in_flight", "mdc.max_mod_rpcs_in_flight", "ldlm.lru_size",
	} {
		if _, ok := reg.Get(want); !ok {
			t.Errorf("missing parameter %s", want)
		}
		found := false
		for _, n := range tun {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not in tunable set", want)
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	_, err := NewRegistry([]*Param{{Name: "a"}, {Name: "a"}})
	if err == nil {
		t.Fatal("duplicate names accepted")
	}
	_, err = NewRegistry([]*Param{{Name: ""}})
	if err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryWritableFilter(t *testing.T) {
	reg := Lustre()
	for _, p := range reg.Writable() {
		if !p.Writable {
			t.Fatalf("%s returned by Writable but not writable", p.Name)
		}
	}
	// Read-only params must not appear.
	for _, p := range reg.Writable() {
		if p.Name == "version" || p.Name == "mgs.mount_block_size" {
			t.Errorf("read-only %s leaked into writable set", p.Name)
		}
	}
}

func TestDefaultConfigCoversWritable(t *testing.T) {
	reg := Lustre()
	cfg := DefaultConfig(reg)
	for _, p := range reg.Writable() {
		v, ok := cfg[p.Name]
		if !ok {
			t.Errorf("default config missing %s", p.Name)
		}
		if v != p.Default {
			t.Errorf("%s default = %d, want %d", p.Name, v, p.Default)
		}
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	reg := Lustre()
	cfg := DefaultConfig(reg)
	env := SystemEnv(196*1024, 5, cfg)
	if err := Validate(cfg, reg, env); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	reg := Lustre()
	cfg := DefaultConfig(reg)
	cfg["osc.max_rpcs_in_flight"] = 100000
	env := SystemEnv(196*1024, 5, cfg)
	err := Validate(cfg, reg, env)
	if err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if !strings.Contains(err.Error(), "osc.max_rpcs_in_flight") {
		t.Fatalf("error does not name the parameter: %v", err)
	}
}

func TestValidateDependentBound(t *testing.T) {
	reg := Lustre()
	cfg := DefaultConfig(reg)
	cfg["llite.max_read_ahead_mb"] = 100
	cfg["llite.max_read_ahead_per_file_mb"] = 60 // > 100/2
	env := SystemEnv(196*1024, 5, cfg)
	if err := Validate(cfg, reg, env); err == nil {
		t.Fatal("dependent bound violation accepted")
	}
	cfg["llite.max_read_ahead_per_file_mb"] = 50
	if err := Validate(cfg, reg, env); err != nil {
		t.Fatalf("valid dependent setting rejected: %v", err)
	}
}

func TestValidateRejectsUnknownAndReadOnly(t *testing.T) {
	reg := Lustre()
	env := SystemEnv(196*1024, 5, nil)
	if err := Validate(Config{"nope.nope": 1}, reg, env); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if err := Validate(Config{"version": 1}, reg, env); err == nil {
		t.Fatal("read-only parameter accepted")
	}
}

func TestClamp(t *testing.T) {
	reg := Lustre()
	cfg := Config{
		"osc.max_rpcs_in_flight": 10000,
		"llite.statahead_max":    -5,
		"lov.stripe_count":       3,
	}
	env := SystemEnv(196*1024, 5, nil)
	out, clamped := Clamp(cfg, reg, env)
	if out["osc.max_rpcs_in_flight"] != 256 {
		t.Errorf("rpcs clamped to %d, want 256", out["osc.max_rpcs_in_flight"])
	}
	if out["llite.statahead_max"] != 0 {
		t.Errorf("statahead clamped to %d, want 0", out["llite.statahead_max"])
	}
	if out["lov.stripe_count"] != 3 {
		t.Errorf("in-range value modified: %d", out["lov.stripe_count"])
	}
	if len(clamped) != 2 {
		t.Errorf("clamped = %v, want 2 entries", clamped)
	}
	// Clamp drops unknown parameters.
	out2, cl2 := Clamp(Config{"bogus.param": 7}, reg, env)
	if _, ok := out2["bogus.param"]; ok || len(cl2) != 1 {
		t.Error("unknown parameter survived clamp")
	}
}

// Property: after Clamp, Validate always succeeds (for known params).
func TestClampThenValidateProperty(t *testing.T) {
	reg := Lustre()
	names := TunableNames(reg)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{}
		for _, n := range names {
			cfg[n] = int64(rng.Intn(2_000_000)) - 1_000_000
		}
		env := SystemEnv(196*1024, 5, nil)
		out, _ := Clamp(cfg, reg, env)
		return Validate(out, reg, env) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigClone(t *testing.T) {
	a := Config{"x": 1, "y": 2}
	b := a.Clone()
	b["x"] = 5
	if a["x"] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestBoundsAndRangeText(t *testing.T) {
	reg := Lustre()
	p, _ := reg.Get("llite.max_read_ahead_per_file_mb")
	lo, hi, err := p.Bounds(Env{"llite.max_read_ahead_mb": 128})
	if err != nil || lo != 0 || hi != 64 {
		t.Fatalf("bounds = %d..%d err=%v", lo, hi, err)
	}
	if !strings.Contains(p.RangeText(), "llite.max_read_ahead_mb / 2") {
		t.Fatalf("range text = %q", p.RangeText())
	}
	sa, _ := reg.Get("llite.statahead_max")
	if sa.RangeText() != "0 to 8192" {
		t.Fatalf("statahead range text = %q", sa.RangeText())
	}
}
