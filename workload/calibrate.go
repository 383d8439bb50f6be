package workload

import (
	"math"
	"sort"
)

// CalibrationClass quantifies, for one class (or overall), how well the
// gpusim device model's predicted kernel seconds track the host-measured
// phase seconds of the same requests. The two live in different units — a
// simulated GPU second is not a host Go second — so the raw MAPE mostly
// reflects the unit gap; FittedMAPE rescales predictions by the
// least-squares ratio first and reports the residual shape error, and
// PearsonR is unit-free: it answers "does the simulator rank workloads the
// way the host experiences them?".
type CalibrationClass struct {
	Class string `json:"class"`
	// Count is how many completed records carried both numbers.
	Count int `json:"count"`
	// MeanPredictedSeconds / MeanMeasuredSeconds are the raw means.
	MeanPredictedSeconds float64 `json:"mean_predicted_s"`
	MeanMeasuredSeconds  float64 `json:"mean_measured_s"`
	// Ratio is the least-squares scale s minimizing Σ(measured − s·predicted)².
	Ratio float64 `json:"ratio"`
	// MAPE is mean |predicted − measured| / measured; FittedMAPE the same
	// after scaling predictions by Ratio.
	MAPE       float64 `json:"mape"`
	FittedMAPE float64 `json:"fitted_mape"`
	// PearsonR is the linear correlation of (predicted, measured);
	// 0 when undefined (fewer than two points or zero variance).
	PearsonR float64 `json:"pearson_r"`
}

// Calibration is the calibration report: per-class rows plus the pooled
// overall row.
type Calibration struct {
	Overall CalibrationClass   `json:"overall"`
	Classes []CalibrationClass `json:"classes,omitempty"`
}

// measuredSeconds is the host-measured counterpart of a prediction: the
// summed instrumented phase seconds when the record carries a breakdown
// (excluding the unattributed "other" remainder), falling back to the
// execution wall time.
func measuredSeconds(r *Record) float64 {
	if len(r.Phases) > 0 {
		var sum float64
		for name, s := range r.Phases {
			if name == "other" {
				continue
			}
			sum += s
		}
		if sum > 0 {
			return sum
		}
	}
	return r.ExecSeconds
}

// calibratePairs folds (predicted, measured) pairs into one row.
func calibratePairs(class string, pred, meas []float64) CalibrationClass {
	row := CalibrationClass{Class: class, Count: len(pred)}
	if len(pred) == 0 {
		return row
	}
	var sumP, sumM, sumPP, sumPM float64
	var ape float64
	for i := range pred {
		sumP += pred[i]
		sumM += meas[i]
		sumPP += pred[i] * pred[i]
		sumPM += pred[i] * meas[i]
		if meas[i] > 0 {
			ape += math.Abs(pred[i]-meas[i]) / meas[i]
		}
	}
	n := float64(len(pred))
	row.MeanPredictedSeconds = Round6(sumP / n)
	row.MeanMeasuredSeconds = Round6(sumM / n)
	row.MAPE = Round6(ape / n)
	ratio := 0.0
	if sumPP > 0 {
		ratio = sumPM / sumPP
	}
	row.Ratio = Round6(ratio)
	var fape float64
	for i := range pred {
		if meas[i] > 0 {
			fape += math.Abs(ratio*pred[i]-meas[i]) / meas[i]
		}
	}
	row.FittedMAPE = Round6(fape / n)
	// Pearson r.
	if len(pred) >= 2 {
		meanP, meanM := sumP/n, sumM/n
		var cov, varP, varM float64
		for i := range pred {
			dp, dm := pred[i]-meanP, meas[i]-meanM
			cov += dp * dm
			varP += dp * dp
			varM += dm * dm
		}
		if varP > 0 && varM > 0 {
			row.PearsonR = Round6(cov / math.Sqrt(varP*varM))
		}
	}
	return row
}

// Calibrate builds the calibration report from a trace's completed records
// that carry a gpusim prediction. Returns nil when none do.
func Calibrate(recs []Record) *Calibration {
	byClass := make(map[string][][2]float64)
	var names []string
	var allPred, allMeas []float64
	for i := range recs {
		r := &recs[i]
		if r.Outcome != OutcomeDone || r.PredictedSeconds <= 0 {
			continue
		}
		meas := measuredSeconds(r)
		if meas <= 0 {
			continue
		}
		name := r.Class
		if name == "" {
			name = "(unclassed)"
		}
		if _, ok := byClass[name]; !ok {
			names = append(names, name)
		}
		byClass[name] = append(byClass[name], [2]float64{r.PredictedSeconds, meas})
		allPred = append(allPred, r.PredictedSeconds)
		allMeas = append(allMeas, meas)
	}
	if len(allPred) == 0 {
		return nil
	}
	sort.Strings(names)
	cal := &Calibration{Overall: calibratePairs("overall", allPred, allMeas)}
	if len(names) > 1 {
		for _, name := range names {
			pairs := byClass[name]
			pred := make([]float64, len(pairs))
			meas := make([]float64, len(pairs))
			for i, p := range pairs {
				pred[i], meas[i] = p[0], p[1]
			}
			cal.Classes = append(cal.Classes, calibratePairs(name, pred, meas))
		}
	}
	return cal
}
