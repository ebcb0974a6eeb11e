package dataset_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

// The integer paths against the string-keyed code they replaced, on
// random logs whose dates carry offsets from −11:00 to +14:00 (some
// not whole hours) and times of day that move the calendar date away
// from UTC's. A dirty log also repeats ids and references unregistered
// ones: the encoding must still represent it.

var zones = []*time.Location{
	time.UTC,
	time.FixedZone("", 2*3600),
	time.FixedZone("", -5*3600),
	time.FixedZone("", 5*3600+1800),
	time.FixedZone("", 5*3600+2700),
	time.FixedZone("", 14*3600),
	time.FixedZone("", -11*3600),
	time.FixedZone("", -9*3600-1800),
}

func randomLog(rng *rand.Rand, dirty bool) *dataset.Log {
	l := &dataset.Log{Name: "random"}
	for i := 1 + rng.Intn(12); i > 0; i-- {
		l.Exams = append(l.Exams, dataset.ExamType{Code: fmt.Sprintf("E%02d", rng.Intn(40)), Category: "c"})
	}
	for i := 1 + rng.Intn(25); i > 0; i-- {
		l.Patients = append(l.Patients, dataset.Patient{ID: fmt.Sprintf("P%03d", rng.Intn(500)), Age: rng.Intn(90)})
	}
	if !dirty {
		l.Exams = uniqueBy(l.Exams, func(x dataset.ExamType) string { return x.Code })
		l.Patients = uniqueBy(l.Patients, func(p dataset.Patient) string { return p.ID })
	}
	base := time.Date(2015, 1, 27, 0, 0, 0, 0, time.UTC)
	for i := rng.Intn(250); i > 0; i-- {
		r := dataset.Record{
			PatientID: l.Patients[rng.Intn(len(l.Patients))].ID,
			ExamCode:  l.Exams[rng.Intn(len(l.Exams))].Code,
			Date:      base.Add(time.Duration(rng.Int63n(int64(70 * 24 * time.Hour)))).In(zones[rng.Intn(len(zones))]),
		}
		if rng.Intn(4) == 0 {
			r.Date = r.Date.Truncate(24 * time.Hour) // a UTC midnight, in some offset
		}
		if dirty && rng.Intn(10) == 0 {
			r.PatientID = fmt.Sprintf("X%d", rng.Intn(4))
		}
		if dirty && rng.Intn(10) == 0 {
			r.ExamCode = fmt.Sprintf("Y%d", rng.Intn(3))
		}
		l.Records = append(l.Records, r)
	}
	return l
}

func uniqueBy[T any](xs []T, key func(T) string) []T {
	seen := map[string]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[key(x)] {
			seen[key(x)] = true
			out = append(out, x)
		}
	}
	return out
}

// forLogs runs check on clean and dirty random logs.
func forLogs(t *testing.T, check func(t *testing.T, l *dataset.Log, dirty bool)) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		dirty := trial%2 == 1
		l := randomLog(rng, dirty)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) { check(t, l, dirty) })
	}
}

// canonicalVisits orders visits by registration row, date and patient
// id: the reference order with its ties broken.
func canonicalVisits(l *dataset.Log, vs []dataset.Visit) []dataset.Visit {
	row := map[string]int{}
	for i, p := range l.Patients {
		row[p.ID] = i
	}
	out := append([]dataset.Visit(nil), vs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if row[a.PatientID] != row[b.PatientID] {
			return row[a.PatientID] < row[b.PatientID]
		}
		if !a.Date.Equal(b.Date) {
			return a.Date.Before(b.Date)
		}
		return a.PatientID < b.PatientID
	})
	return out
}

func TestVisitsEqualReference(t *testing.T) {
	forLogs(t, func(t *testing.T, l *dataset.Log, dirty bool) {
		got, want := l.Visits(), dataset.ReferenceVisits(l)
		if dirty {
			// Unregistered patients share row 0, where the reference
			// leaves same-day visits in no defined order.
			got, want = canonicalVisits(l, got), canonicalVisits(l, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("visits\n got %+v\nwant %+v", got, want)
		}
	})
}

// referenceCharacterize is stats.Characterize over string maps.
func referenceCharacterize(l *dataset.Log) stats.Descriptor {
	d := stats.Descriptor{
		DatasetName:  l.Name,
		NumPatients:  l.NumPatients(),
		NumRecords:   l.NumRecords(),
		NumExamTypes: l.NumExamTypes(),
	}
	rp := []float64{}
	for _, c := range dataset.ReferenceRecordsPerPatient(l) {
		rp = append(rp, float64(c))
	}
	sort.Float64s(rp)
	d.RecordsPerPatient = stats.Summarize(rp)
	visits := dataset.ReferenceVisits(l)
	d.NumVisits = len(visits)
	vs := make([]float64, len(visits))
	for i, v := range visits {
		vs[i] = float64(len(v.ExamCodes))
	}
	d.ExamsPerVisit = stats.Summarize(vs)
	ages := make([]float64, len(l.Patients))
	for i, p := range l.Patients {
		ages[i] = float64(p.Age)
	}
	d.Age = stats.Summarize(ages)
	counts := []int{}
	for _, c := range l.ExamFrequencies() {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	d.FrequencyEntropy = stats.Entropy(counts)
	d.FrequencyEntropyNorm = stats.NormalizedEntropy(counts)
	d.FrequencyGini = stats.Gini(counts)
	d.Top20Coverage = stats.TopShareByCount(counts, (len(counts)+4)/5)
	d.Top40Coverage = stats.TopShareByCount(counts, (2*len(counts)+4)/5)
	type cell struct{ p, e string }
	nz := map[cell]bool{}
	for _, r := range l.Records {
		nz[cell{r.PatientID, r.ExamCode}] = true
	}
	if cells := l.NumPatients() * l.NumExamTypes(); cells > 0 {
		d.VSMSparsity = 1 - float64(len(nz))/float64(cells)
	}
	if min, max, ok := l.TimeSpan(); ok {
		d.SpanDays = int(max.Sub(min).Hours()/24) + 1
	}
	return d
}

func TestCharacterizeEqualsReference(t *testing.T) {
	forLogs(t, func(t *testing.T, l *dataset.Log, dirty bool) {
		got, want := stats.Characterize(l), referenceCharacterize(l)
		if dirty {
			// Summarize's moment sums follow visit order, which the
			// reference leaves open among tied visits.
			g, w := &got.ExamsPerVisit, &want.ExamsPerVisit
			for _, p := range [][2]*float64{{&g.Std, &w.Std}, {&g.Skewness, &w.Skewness}, {&g.Kurtosis, &w.Kurtosis}} {
				if math.Abs(*p[0]-*p[1]) > 1e-9*math.Max(1, math.Abs(*p[1])) {
					t.Fatalf("exams per visit moment %v, want %v", *p[0], *p[1])
				}
				*p[0] = *p[1]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("descriptor\n got %+v\nwant %+v", got, want)
		}
	})
}

// referenceMonthlyDemand is stats.MonthlyDemand over a month map.
func referenceMonthlyDemand(l *dataset.Log) []stats.DemandPoint {
	min, max, ok := l.TimeSpan()
	if !ok {
		return nil
	}
	type ym struct{ y, m int }
	counts := map[ym]int{}
	for _, r := range l.Records {
		counts[ym{r.Date.Year(), int(r.Date.Month())}]++
	}
	var out []stats.DemandPoint
	cur := time.Date(min.Year(), min.Month(), 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(max.Year(), max.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !cur.After(end) {
		key := ym{cur.Year(), int(cur.Month())}
		out = append(out, stats.DemandPoint{Year: key.y, Month: key.m, Count: counts[key]})
		cur = cur.AddDate(0, 1, 0)
	}
	return out
}

func TestMonthlyDemandEqualsReference(t *testing.T) {
	forLogs(t, func(t *testing.T, l *dataset.Log, _ bool) {
		if got, want := stats.MonthlyDemand(l), referenceMonthlyDemand(l); !reflect.DeepEqual(got, want) {
			t.Fatalf("demand\n got %+v\nwant %+v", got, want)
		}
	})
}

// referenceBuild is vsm.Build's count matrix over string maps: the
// features, the raw rows, or the error.
func referenceBuild(l *dataset.Log) (features []string, raw [][]float64, err error) {
	features = dataset.ReferenceExamsByFrequency(l)
	fIdx := map[string]int{}
	for i, f := range features {
		fIdx[f] = i
	}
	pIdx := map[string]int{}
	for i, p := range l.Patients {
		pIdx[p.ID] = i
	}
	raw = make([][]float64, len(l.Patients))
	for i := range raw {
		raw[i] = make([]float64, len(features))
	}
	for _, r := range l.Records {
		p, okP := pIdx[r.PatientID]
		f, okF := fIdx[r.ExamCode]
		if !okP || !okF {
			return nil, nil, fmt.Errorf("vsm: record references unknown patient %q or exam %q", r.PatientID, r.ExamCode)
		}
		raw[p][f]++
	}
	return features, raw, nil
}

func TestVSMBuildEqualsReference(t *testing.T) {
	forLogs(t, func(t *testing.T, l *dataset.Log, _ bool) {
		features, raw, err := referenceBuild(l)
		m, gotErr := vsm.Build(l, vsm.Options{})
		if (err == nil) != (gotErr == nil) || err != nil && err.Error() != gotErr.Error() {
			t.Fatalf("error %v, want %v", gotErr, err)
		}
		if err != nil {
			return
		}
		// Under Options{} (count weighting, no normalization) the rows
		// are a copy of the raw counts.
		if !reflect.DeepEqual(m.Features, features) || !reflect.DeepEqual(m.Rows.Dense(), raw) {
			t.Fatalf("matrix features %v rows %v, want %v %v", m.Features, m.Rows.Dense(), features, raw)
		}
		ids := make([]string, len(l.Patients))
		for i, p := range l.Patients {
			ids[i] = p.ID
		}
		if !reflect.DeepEqual(m.PatientIDs, ids) {
			t.Fatalf("patient ids %v, want %v", m.PatientIDs, ids)
		}
		freq := l.ExamFrequencies()
		covered := 0
		for n, f := range features {
			covered += freq[f]
			if want := float64(covered) / float64(len(l.Records)); len(l.Records) > 0 && m.CoverageAt(n+1) != want {
				t.Fatalf("coverage at %d = %v, want %v", n+1, m.CoverageAt(n+1), want)
			}
		}
	})
}
