package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/vec"
)

// refBuild is the dense transform Build replaced, kept as the oracle:
// the raw count rows and the weighted rows of l, both patients ×
// features, and the feature order and frequencies.
func refBuild(l *dataset.Log, opts Options) (raw, rows [][]float64, features []string, freq []int) {
	enc := l.Encoded()
	keyFreq := addCounts(nil, len(enc.ExamCodes), enc.Exam)
	keys := featureOrder(enc, keyFreq)
	column := make([]int, len(keyFreq))
	for i, k := range keys {
		features = append(features, enc.ExamCodes[k])
		freq = append(freq, keyFreq[k])
		column[k] = i
	}
	raw = make([][]float64, l.NumPatients())
	for i := range raw {
		raw[i] = make([]float64, len(features))
	}
	for i, p := range enc.Patient {
		raw[p][column[enc.Exam[i]]]++
	}
	return raw, refWeigh(raw, opts), features, freq
}

// refWeigh is the dense weighting + normalization, every cell written.
func refWeigh(raw [][]float64, opts Options) [][]float64 {
	n, d := len(raw), len(raw[0])
	idf := make([]float64, d)
	if opts.Weighting == TFIDF {
		df := make([]int, d)
		for _, r := range raw {
			for j, v := range r {
				if v > 0 {
					df[j]++
				}
			}
		}
		for j, c := range df {
			if c > 0 {
				idf[j] = math.Log(float64(n) / float64(c))
			}
		}
	}
	rows := make([][]float64, n)
	for i, r := range raw {
		out := make([]float64, d)
		for j, v := range r {
			switch opts.Weighting {
			case Count:
				out[j] = v
			case Binary:
				if v > 0 {
					out[j] = 1
				}
			case LogCount:
				out[j] = math.Log1p(v)
			case TFIDF:
				out[j] = v * idf[j]
			}
		}
		switch opts.Normalization {
		case L2:
			s := 0.0
			for _, v := range out {
				s += float64(v * v)
			}
			if s > 0 {
				inv := 1 / math.Sqrt(s)
				for j := range out {
					out[j] *= inv
				}
			}
		case L1:
			s := 0.0
			for _, v := range out {
				s += math.Abs(v)
			}
			if s > 0 {
				for j := range out {
					out[j] /= s
				}
			}
		}
		rows[i] = out
	}
	return rows
}

// refMatrix is the Matrix the dense oracle describes, its rows
// compressed by vec.NewCSRFromDense.
func refMatrix(l *dataset.Log, opts Options, n int) *Matrix {
	raw, _, features, freq := refBuild(l, opts)
	ids := make([]string, len(l.Patients))
	for i, p := range l.Patients {
		ids[i] = p.ID
	}
	n = min(max(n, 1), len(features))
	for i := range raw {
		raw[i] = raw[i][:n]
	}
	return &Matrix{
		PatientIDs:   ids,
		Features:     features[:n],
		Rows:         vec.NewCSRFromDense(refWeigh(raw, opts)),
		Opts:         opts,
		raw:          vec.NewCSRFromDense(raw),
		featureFreq:  freq[:n],
		totalRecords: l.NumRecords(),
	}
}

// TestBuildMatchesDenseReference: for every weighting and
// normalization, Build and Project(n) at every n hold exactly the CSR
// matrices, cached norms included, that vec.NewCSRFromDense makes of
// the dense oracle's rows.
func TestBuildMatchesDenseReference(t *testing.T) {
	logs := []*dataset.Log{vsmLog(t), smallLog(t, 5)}
	rng := rand.New(rand.NewSource(7))
	for range 4 {
		counts := make([][4]uint8, 1+rng.Intn(12))
		for i := range counts {
			for j := range counts[i] {
				counts[i][j] = uint8(rng.Intn(7))
			}
		}
		if l, ok := buildFromCounts(counts); ok {
			logs = append(logs, l)
		}
	}
	for li, l := range logs {
		for w := Count; w <= TFIDF; w++ {
			for norm := NoNorm; norm <= L1; norm++ {
				opts := Options{Weighting: w, Normalization: norm}
				m, err := Build(l, opts)
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n <= m.NumFeatures(); n++ {
					if err := Equivalent(m.Project(n), refMatrix(l, opts, n)); err != nil {
						t.Fatalf("log %d %s/%s Project(%d): %v", li, w, norm, n, err)
					}
				}
			}
		}
	}
}

// Under TFIDF an exam every patient had weighs idf = ln(N/N) = 0, so
// its cells are absent from Rows, though present in the raw counts.
func TestTFIDFDropsUbiquitousExams(t *testing.T) {
	m, err := Build(vsmLog(t), Options{Weighting: TFIDF})
	if err != nil {
		t.Fatal(err)
	}
	// Columns B, A are in both patients; only P2's C survives.
	if got := fmt.Sprint(m.Rows.RowPtr, m.Rows.ColIdx); got != "[0 0 1] [2]" {
		t.Errorf("TFIDF rows (row pointers, columns) = %s, want [0 0 1] [2]", got)
	}
	if nnz := len(m.raw.Values); nnz != 5 {
		t.Errorf("raw counts hold %d nonzeros, want 5", nnz)
	}
}

// TestWideLogMemory: a VSM costs memory in its records, not in its
// cells. 2,000 patients with one record each over 2,000 exam types is
// four million cells, 32 MB a dense matrix, but Build and a Project
// stay under 2 MB.
func TestWideLogMemory(t *testing.T) {
	l := dataset.NewLog("wide")
	for i := range 2000 {
		code, id := fmt.Sprintf("E%04d", i), fmt.Sprintf("P%04d", i)
		if l.AddExam(dataset.ExamType{Code: code}) != nil || l.AddPatient(dataset.Patient{ID: id}) != nil ||
			l.AddRecord(dataset.Record{PatientID: id, ExamCode: code}) != nil {
			t.Fatal("building the wide log")
		}
	}
	l.Encoded() // the log's own encoding is not the transform's cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Build(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Project(1000)
	runtime.ReadMemStats(&after)
	if p.NumRows() != 2000 || len(p.Rows.Values) != 1000 {
		t.Fatalf("projection %d rows, %d nonzeros; want 2000, 1000", p.NumRows(), len(p.Rows.Values))
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Build + Project allocated %.3f MB", mb)
	if mb >= 2 {
		t.Errorf("Build + Project allocated %.2f MB, want < 2 MB", mb)
	}
}
