package stats

// ConfusionMatrix accumulates multiclass prediction outcomes over a fixed
// label universe [0, classes).
type ConfusionMatrix struct {
	classes int
	counts  []int // counts[actual*classes+predicted]
}

// NewConfusionMatrix creates a matrix over `classes` labels.
func NewConfusionMatrix(classes int) *ConfusionMatrix {
	if classes <= 0 {
		panic("stats: NewConfusionMatrix classes <= 0")
	}
	return &ConfusionMatrix{classes: classes, counts: make([]int, classes*classes)}
}

// Add records one (actual, predicted) observation. Out-of-range labels
// are ignored.
func (m *ConfusionMatrix) Add(actual, predicted int) {
	if actual < 0 || actual >= m.classes || predicted < 0 || predicted >= m.classes {
		return
	}
	m.counts[actual*m.classes+predicted]++
}

// Count returns the number of observations with the given actual and
// predicted labels.
func (m *ConfusionMatrix) Count(actual, predicted int) int {
	return m.counts[actual*m.classes+predicted]
}

// Total returns the number of recorded observations.
func (m *ConfusionMatrix) Total() int {
	t := 0
	for _, c := range m.counts {
		t += c
	}
	return t
}

// F1 returns the macro-averaged F1 score: the unweighted mean of the
// per-class harmonic mean of precision and recall, over classes that
// appear in the data (as actual or predicted). This is the scoring used
// for the paper's spatial-feature correlation analysis (§5.4.2, Fig. 9):
// a spatial feature correlates strongly with HCfirst when predicting
// HCfirst from the feature yields a high F1.
func (m *ConfusionMatrix) F1() float64 {
	sum, n := 0.0, 0
	for c := 0; c < m.classes; c++ {
		tp := m.counts[c*m.classes+c]
		fp, fn := 0, 0
		for o := 0; o < m.classes; o++ {
			if o == c {
				continue
			}
			fp += m.counts[o*m.classes+c]
			fn += m.counts[c*m.classes+o]
		}
		if tp+fp+fn == 0 {
			continue // class absent entirely: skip from macro average
		}
		n++
		if tp == 0 {
			continue // precision and recall are both 0
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(tp+fn)
		sum += 2 * precision * recall / (precision + recall)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
