package main

import (
	"reflect"
	"testing"
)

func TestCalmKeepsLeastStolen(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{nil, []bool{}},
		{[]float64{0.3}, []bool{true}},
		// At least the calmer half, in the intervals' order.
		{[]float64{0.3, 0.1, 0.2}, []bool{false, true, true}},
		// Everything within calmSlack of the least stolen.
		{[]float64{0.10, 0.01, 0.015, 0.02}, []bool{false, true, true, true}},
		// Nothing stolen: every interval is calm.
		{[]float64{0, 0, 0, 0, 0}, []bool{true, true, true, true, true}},
	} {
		if got := calm(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestCalmestKeepsOrder(t *testing.T) {
	reps := []rep{{StealFrac: 0.3, PipelineS: 3}, {StealFrac: 0.1, PipelineS: 1}, {StealFrac: 0.2, PipelineS: 2}}
	got := calmest(reps)
	if len(got) != 2 || got[0].PipelineS != 1 || got[1].PipelineS != 2 {
		t.Fatalf("calmest = %+v, want the repetitions with steal 0.1 and 0.2", got)
	}
	if reps[0].PipelineS != 3 {
		t.Fatal("calmest reordered its input")
	}
}
