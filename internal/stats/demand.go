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
	type ym struct{ y, m int }
	counts := map[ym]int{}
	for _, r := range l.Records {
		counts[ym{r.Date.Year(), int(r.Date.Month())}]++
	}
	var out []DemandPoint
	cur := time.Date(min.Year(), min.Month(), 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(max.Year(), max.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !cur.After(end) {
		key := ym{cur.Year(), int(cur.Month())}
		out = append(out, DemandPoint{Year: key.y, Month: key.m, Count: counts[key]})
		cur = cur.AddDate(0, 1, 0)
	}
	return out
}
