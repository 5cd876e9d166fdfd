package perwindow

import (
	"fmt"
	"math/rand"

	"pmpr/internal/tcsr"
)

// Sampler picks the sources of a per-source centrality (one BFS or
// Brandes pass per source) and owns the per-task buffer it lists them
// in. Computation is exact, from every active vertex, when Sample is 0
// or covers every active vertex; otherwise the sources are the first
// Sample active vertices of a shuffle seeded by Seed ^ w*Mix, so
// sampling is deterministic per (window, seed). Mix is the analysis'
// own constant.
type Sampler struct {
	Sample    int
	Seed, Mix int64

	actives []int32
}

// CheckSample rejects a negative SampleSources setting of analysis
// name.
func CheckSample(name string, sample int) error {
	if sample < 0 {
		return fmt.Errorf("%s: SampleSources %d must be >= 0", name, sample)
	}
	return nil
}

// Sources returns window w's sources and whether they are exact. The
// slice is only valid until the next call.
func (s *Sampler) Sources(w int, view *tcsr.WindowView) (sources []int32, exact bool) {
	if cap(s.actives) < int(view.NumActive) {
		s.actives = make([]int32, view.NumActive)
	}
	actives := s.actives[:view.NumActive]
	i := 0
	for v, act := range view.Active {
		if act {
			actives[i] = int32(v)
			i++
		}
	}
	if s.Sample == 0 || s.Sample >= len(actives) {
		return actives, true
	}
	rng := rand.New(rand.NewSource(s.Seed ^ int64(w)*s.Mix))
	rng.Shuffle(len(actives), func(i, j int) { actives[i], actives[j] = actives[j], actives[i] })
	return actives[:s.Sample], false
}

// Finish returns the active vertex with the highest positive score
// (global id; the lowest local id wins ties) and its score, or -1 and
// 0 when no active vertex scores above 0, as in an empty window. With
// keep it marks inactive vertices -1 and returns scores for the result
// to keep; otherwise kept is nil.
func Finish(mw *tcsr.MultiWindow, view *tcsr.WindowView, scores []float64, keep bool) (top int32, topScore float64, kept []float64) {
	top = -1
	for v, act := range view.Active {
		if act && scores[v] > topScore {
			top, topScore = mw.GlobalID(int32(v)), scores[v]
		}
	}
	if !keep {
		return top, topScore, nil
	}
	for v, act := range view.Active {
		if !act {
			scores[v] = -1
		}
	}
	return top, topScore, scores
}
