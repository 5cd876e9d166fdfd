package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNonFiniteValuesStillMarshal(t *testing.T) {
	b, err := json.Marshal(pct{Value: math.Inf(1), N: 10})
	if err != nil || !strings.Contains(string(b), `"value":null`) {
		t.Fatalf("pct{+Inf} = %s, %v; want value null", b, err)
	}
	if b, err := json.Marshal(pct{Value: 2.5, N: 3}); err != nil || !strings.Contains(string(b), `"value":2.5`) {
		t.Fatalf("pct{2.5} = %s, %v", b, err)
	}
	if finite(math.Inf(1)) != math.MaxFloat64 || finite(3) != 3 {
		t.Fatal("finite")
	}
}
