package stats

import (
	"time"

	"adahealth/internal/dataset"
)

// DemandPoint is the examination volume of one calendar month.
type DemandPoint struct {
	Year  int `json:"year"`
	Month int `json:"month"`
	Count int `json:"count"`
}

// MonthlyDemand aggregates record volume per calendar month, the
// series behind the resource-planning end-goal ("planning resource
// allocation and reduce costs"). Months inside the observation window
// with no records are included with count 0.
func MonthlyDemand(l *dataset.Log) []DemandPoint {
	min, max, ok := l.TimeSpan()
	if !ok {
		return nil
	}
	// Counts per month of the window, by the records' calendar dates in
	// their own offsets; a date outside the window's months (possible
	// across offsets) counts nowhere.
	first := min.Year()*12 + int(min.Month()) - 1
	months := max.Year()*12 + int(max.Month()) - first
	if months < 0 {
		months = 0
	}
	counts := make([]int, months)
	enc := l.Encoded()
	for _, day := range enc.Day {
		y, m, _ := dataset.DayTime(day).Date()
		if i := y*12 + int(m) - 1 - first; i >= 0 && i < len(counts) {
			counts[i]++
		}
	}
	var out []DemandPoint
	cur := time.Date(min.Year(), min.Month(), 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(max.Year(), max.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !cur.After(end) {
		y, m := cur.Year(), int(cur.Month())
		out = append(out, DemandPoint{Year: y, Month: m, Count: counts[y*12+m-1-first]})
		cur = cur.AddDate(0, 1, 0)
	}
	return out
}
