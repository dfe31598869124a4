package agent

import (
	"maps"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeUL(t *testing.T) {
	in := map[string]float64{"m": 0.23, "t": 25.5, "b": 0.9}
	s := EncodeUL(in)
	if s != "b|0.9|m|0.23|t|25.5" {
		t.Errorf("encoded %q", s)
	}
	out, err := DecodeUL(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out["m"] != 0.23 || out["t"] != 25.5 || out["b"] != 0.9 {
		t.Errorf("decoded %v", out)
	}
}

func TestDecodeULRejectsMalformed(t *testing.T) {
	for _, s := range []string{"", "m", "m|1|t", "m|abc", "|1", "m|1|m|2", "m|NaN", "m|1|t|-Inf", "m|+inf"} {
		if _, err := DecodeUL(s); err == nil {
			t.Errorf("DecodeUL(%q) succeeded", s)
		}
	}
}

// Property: encode→decode round-trips arbitrary finite measurement maps.
func TestULRoundTripProperty(t *testing.T) {
	f := func(keys []string, vals []float64) bool {
		in := make(map[string]float64)
		for i, k := range keys {
			if i >= len(vals) {
				break
			}
			k = strings.Map(func(r rune) rune {
				if r == '|' || r == 0 {
					return 'x'
				}
				return r
			}, k)
			if k == "" {
				continue
			}
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			in[k] = v
		}
		if len(in) == 0 {
			return true
		}
		out, err := DecodeUL(EncodeUL(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for k, v := range in {
			if out[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	s := EncodeCommand("pivot-1", "setRate", 7.5)
	dev, name, v, err := DecodeCommand(s)
	if err != nil {
		t.Fatal(err)
	}
	if dev != "pivot-1" || name != "setRate" || v != 7.5 {
		t.Errorf("decoded %q %q %g", dev, name, v)
	}
	for _, bad := range []string{"", "noat|1", "@name|1", "dev@|1", "dev@name|", "dev@name|xyz", "dev@name"} {
		if _, _, _, err := DecodeCommand(bad); err == nil {
			t.Errorf("DecodeCommand(%q) succeeded", bad)
		}
	}
}

func TestTopics(t *testing.T) {
	top := AttrsTopic("key1", "dev1")
	if top != "ul/key1/dev1/attrs" {
		t.Errorf("attrs topic %q", top)
	}
	k, d, err := ParseAttrsTopic(top)
	if err != nil || k != "key1" || d != "dev1" {
		t.Errorf("parse: %q %q %v", k, d, err)
	}
	for _, bad := range []string{"", "ul/k/d/cmd", "x/k/d/attrs", "ul//d/attrs", "ul/k//attrs", "ul/k/d/e/attrs"} {
		if _, _, err := ParseAttrsTopic(bad); err == nil {
			t.Errorf("ParseAttrsTopic(%q) succeeded", bad)
		}
	}
	if CmdTopic("k", "d") != "ul/k/d/cmd" {
		t.Errorf("cmd topic %q", CmdTopic("k", "d"))
	}
}

// FuzzDecodeUL: DecodeUL never panics, every payload it accepts yields
// finite values, and re-encoding what it decoded decodes to the same map.
// The seed corpus is in testdata/fuzz/FuzzDecodeUL.
func FuzzDecodeUL(f *testing.F) {
	f.Add("m1|0.31|m2|0.28")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := DecodeUL(s)
		if err != nil {
			return
		}
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("DecodeUL(%q)[%q] = %v, not finite", s, k, v)
			}
		}
		again, err := DecodeUL(EncodeUL(m))
		if err != nil {
			t.Fatalf("DecodeUL(EncodeUL(%v)) = %v", m, err)
		}
		if !maps.Equal(again, m) {
			t.Fatalf("round trip of %q: %v, want %v", s, again, m)
		}
	})
}
